from __future__ import annotations

import pytest

from aliascert.annot import C0, U0, Annotation, TypeVar, calc, rep, uncalc
from aliascert.disasm import StackInstr
from aliascert.isa import GP, RA, SP, V0, REG_INDEX, ZERO
from aliascert.smallstep import PatternMismatch, apply_smallstep

A0 = REG_INDEX["a0"]


def test_put_marks_offset_and_binds_slot():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0), RA: U0})
    out = apply_smallstep(StackInstr("put", rd=RA, n=28), a)
    assert out.star_type() == calc(32, 0, offs=[28])
    assert out.slot(28) == U0
    assert out.reg(RA) == U0


def test_get_reads_slot_through_written_offset():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[16, 24, 28])},
                        slots={16: C0})
    out = apply_smallstep(StackInstr("get", rd=GP, n=16), a)
    assert out.reg(GP) == C0
    assert out.star_type() == a.star_type()
    assert out.slots == a.slots


def test_rspf_restores_enclosing_frame():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[16, 24, 28]), GP: C0})
    out = apply_smallstep(StackInstr("rspf", rs=GP), a)
    assert out.star_type() == C0
    assert out.reg(GP) == C0
    assert out.slots == ()


def test_cspf_requires_equal_towers():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0), V0: calc(16, 0)})
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("cspf", rs=V0), a)


def test_cspf_installs_copy_offsets_and_prunes_slots():
    a = Annotation.make(
        star=SP,
        regs={SP: calc(32, 0, offs=[12, 20, 24, 28]), REG_INDEX["fp"]: calc(32, 0, offs=[20, 24])},
        slots={12: C0, 20: TypeVar("x"), 24: U0, 28: rep(1, offs=[0])},
    )
    out = apply_smallstep(StackInstr("cspf", rs=REG_INDEX["fp"]), a)
    assert out.star_type() == calc(32, 0, offs=[20, 24])
    assert out.slot_map() == {20: TypeVar("x"), 24: U0}


def test_push_clears_slots_and_prepends_frame():
    a = Annotation.make(star=SP, regs={SP: calc(48, offs=[0, 4, 8])}, slots={0: C0})
    out = apply_smallstep(StackInstr("push", n=32), a)
    assert out.star_type() == calc(32, 48)
    assert out.slots == ()


def test_stepx_keeps_string_offsets():
    a = Annotation.make(regs={V0: rep(1, offs=[0])})
    out = apply_smallstep(StackInstr("stepx", rd=V0, n=1), a)
    assert out.reg(V0) == rep(1, offs=[0])


def test_mov_copies_any_binding_including_variables():
    a = Annotation.make(regs={A0: TypeVar("x")})
    out = apply_smallstep(StackInstr("mov", rd=V0, rs=A0), a)
    assert out.reg(V0) == TypeVar("x")


def test_arithmetic_produces_plain_word():
    a = Annotation.make(regs={A0: calc(0), V0: uncalc(8)})
    out = apply_smallstep(StackInstr("addaiu", rd=V0, rs=A0, n=5), a)
    assert out.reg(V0) == C0
    with pytest.raises(PatternMismatch):
        # arithmetic on an uncalculatable value is the point of u
        apply_smallstep(StackInstr("addaiu", rd=A0, rs=V0, n=5), a)


def test_addop_and_nandop_give_a_plain_word():
    # any bound operands, even an uncalculatable one, give a plain word
    a = Annotation.make(star=SP, regs={SP: calc(0), A0: uncalc(8), V0: calc(0)})
    for op in ("addop", "nandop"):
        out = apply_smallstep(StackInstr(op, rd=V0, rs=A0, rt=V0), a)
        assert out.reg(V0) == C0 and out.reg(A0) == uncalc(8)
        for bad in ({"rd": V0, "rs": SP, "rt": V0},   # the stack pointer
                    {"rd": ZERO, "rs": A0, "rt": V0},  # the zero register
                    {"rd": V0, "rs": A0, "rt": GP}):   # an unbound operand
            with pytest.raises(PatternMismatch):
                apply_smallstep(StackInstr(op, **bad), a)


def test_string_write_requires_calculated_value():
    a = Annotation.make(regs={A0: rep(4), V0: uncalc(0)})
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("putx", rd=V0, rs=A0, n=0), a)
    ok = Annotation.make(regs={A0: rep(4), V0: calc(0)})
    out = apply_smallstep(StackInstr("putx", rd=V0, rs=A0, n=0), ok)
    assert out.reg(A0) == rep(4, offs=[0])


def test_heap_load_yields_plain_word():
    a = Annotation.make(regs={A0: uncalc(8, offs=[4]), V0: calc(0)})
    out = apply_smallstep(StackInstr("lwfh", rd=V0, rs=A0, n=4), a)
    assert out.reg(V0) == C0


def test_zero_register_never_a_destination():
    a = Annotation.make(star=SP, regs={SP: calc(0), V0: calc(0)})
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("mov", rd=ZERO, rs=V0), a)
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("cspt", rd=ZERO), a)


def test_unbound_register_fails_patterns():
    a = Annotation.make(regs={})
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("mov", rd=V0, rs=A0), a)


def test_branch_requires_calculated_register():
    a = Annotation.make(regs={V0: U0})
    with pytest.raises(PatternMismatch):
        apply_smallstep(StackInstr("ifnz", rd=V0, target=0), a)
    ok = Annotation.make(regs={V0: rep(1)})
    assert apply_smallstep(StackInstr("ifnz", rd=V0, target=0), ok) == ok
