"""Functional updates of annotations against building them from maps."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from aliascert.annot import (C0, U0, Annotation, TypeVar, UnifyMismatch, calc, rep, uncalc,
                             unify_annotations)
from aliascert.isa import REG_INDEX, SP

types = st.sampled_from([C0, U0, calc(8, 0), calc(16, 8, 0, offs=[4]), rep(1),
                         rep(2, offs=[0]), uncalc(3, offs=[0, 1]), TypeVar("x")])
regs_ = st.integers(0, SP - 1)  # any register but the stack pointer
offsets = st.sampled_from([0, 4, 8, 12])
reg_maps = st.dictionaries(regs_, types, max_size=12)
slot_maps = st.dictionaries(offsets, types, max_size=4)

# the stack pointer, with every offset a slot may use written
SP_TYPE = calc(16, 0, offs=[0, 4, 8, 12])
# a frame with offset 4 written and no slot bound
FRAMED = Annotation.make(star=SP, regs={SP: calc(8, 0, offs=[4])})


def make(regs, slots) -> Annotation:
    return Annotation.make(star=SP, regs={**regs, SP: SP_TYPE}, slots=slots)


def _same(a: Annotation, b: Annotation) -> None:
    assert a == b
    assert hash(a) == hash(b)


@given(reg_maps, slot_maps, regs_, types)
def test_set_reg_matches_make(regs, slots, r, t):
    _same(make(regs, slots).set_reg(r, t), make({**regs, r: t}, slots))


@given(reg_maps, slot_maps, offsets, types)
def test_set_slot_matches_make(regs, slots, k, t):
    _same(make(regs, slots).set_slot(k, t), make(regs, {**slots, k: t}))


@given(reg_maps, slot_maps, slot_maps)
def test_with_slots_matches_make(regs, slots, other):
    _same(make(regs, slots).with_slots(make({}, other).slots), make(regs, other))
    _same(make(regs, slots).with_slots(), make(regs, {}))


def test_update_shares_unchanged_pairs():
    a = make({1: C0, 2: U0, 3: rep(1)}, {4: U0, 8: C0})
    b = a.set_reg(2, C0)
    assert b.reg(2) is C0 and b.slots is a.slots
    assert all(b.regs[r] is a.regs[r] for r in range(32) if r != 2)
    c = a.set_slot(4, C0)
    assert c.regs is a.regs and c.slot(4) is C0 and c.slot(8) is a.slot(8)
    assert a.set_reg(1, a.reg(1)) is a and a.set_slot(8, a.slot(8)) is a


@pytest.mark.parametrize("other,message", [
    (Annotation.make(regs={SP: calc(8, 0, offs=[4])}), "cannot unify star sp with star none"),
    (FRAMED.set_reg(REG_INDEX["t0"], C0),
     "cannot unify registers {t0} with bound on one path only"),
    (FRAMED.set_slot(4, C0), "cannot unify slots [4] with bound on one path only"),
])
def test_join_refuses_a_different_star_registers_or_slots(other, message):
    with pytest.raises(UnifyMismatch) as e:
        unify_annotations(FRAMED, other)
    assert str(e.value) == message
