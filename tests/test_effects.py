"""What backjumping assumes of each reading, checked against the rules.

`certifier._effects` derives, from the ``blind`` and ``writes`` fields of
`disasm.READINGS`, what the search assumes about the readings of one
instruction: the locations whose types or bindings can decide whether a
reading succeeds, the locations a reading may change, and those it
overwrites outright.  These tests check those claims, and each reading's
own fields, against the step the search itself takes (`_Walk._take`,
which applies the small-step rules), on generated annotations for every
mnemonic and every placement of the stack pointer.  A call is left out:
its reading goes through the calling convention, and the search takes a
call row to depend on every choice before it.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aliascert import certifier
from aliascert.annot import C0, U0, Annotation, Calc, Finite, Rep, SetVar, TypeVar, calc, rep, uncalc
from aliascert.certifier import DEFAULT_POLICY, _SLOTS, _effects
from aliascert.disasm import NEITHER, READINGS, raw_alternatives
from aliascert.isa import BASE_ADDRESS, FORMATS, RA, REG_INDEX, SP, ZERO, DataBlob, \
    Instruction, Program
from aliascert.smallstep import PatternMismatch

T0, T1 = REG_INDEX["t0"], REG_INDEX["t1"]
REGS = (ZERO, T0, T1, SP, RA)
STARS = (None, T0, T1, SP)
# Types that make each rule both succeed and fail: plain words, return
# addresses, frames, strings and arrays with and without written offsets,
# and types with variables in them.
TYPES = (C0, U0, calc(8), calc(8, offs=(0, 4)), calc(16, 8, offs=(0, 4)), rep(1),
         rep(1, offs=(0,)), rep(4), rep(4, offs=(0,)), Calc(Rep(1), SetVar("s")),
         uncalc(1, offs=(0,)), uncalc(8), uncalc(8, offs=(0, 4)), TypeVar("x"))
# Stack pointer types; slots at 0 and 4 fit every one of them.
STACK_TYPES = (calc(8, offs=(0, 4)), calc(16, 8, offs=(0, 4, 8)), Calc(Finite((8,)), SetVar("o")))
SLOT_KEYS = (0, 4)
BLOBS = {"s": DataBlob(b"ab\0"), "w": DataBlob(b"abcdefgh", step=4)}
# The operands every instruction is built from: registers, immediates,
# load and store offsets, and targets (a string, an array and a code label
# for ``li``; the code label for a jump).
_POOLS = {"rd": REGS, "rs": REGS, "rt": REGS, "imm": (-8, -1, 0, 1, 4, 8)}
_MEM_OFFSETS = (0, 1, 4, -4)


def _instructions(op: str):
    """Every instruction of ``op`` over the operand pools."""
    names, pools = [], []
    for f in FORMATS[op]:
        if f == "mem":
            names += ["imm", "rs"]
            pools += [_MEM_OFFSETS, REGS]
        elif f == "target":
            names.append(f)
            pools.append(("s", "w", "L") if op == "li" else ("L",))
        else:
            names.append(f)
            pools.append(_POOLS[f])
    for values in itertools.product(*pools):
        yield Instruction(op, **dict(zip(names, values)))


class _Picks(random.Random):
    """The annotations of one example, picked from one drawn seed, which
    keeps the generation cheap."""

    def __call__(self, options):
        return self.choice(options)

    def type(self, r: int | None, star: int | None, bound: bool | None = None):
        """A type for register ``r`` (a stack type for the stack pointer);
        ``bound`` forces it to be bound or unbound, None picks either."""
        if r == star:
            return self(STACK_TYPES)
        if bound is False:
            return None
        return self(TYPES if bound else (None,) + TYPES)

    def annotation(self, star: int | None) -> Annotation:
        regs = {r: self.type(r, star) for r in REGS}
        slots = {k: self.type(None, star) for k in SLOT_KEYS} if star is not None else {}
        return Annotation.make(star, {r: t for r, t in regs.items() if t is not None},
                               {k: t for k, t in slots.items() if t is not None})

    def redrawn(self, ann: Annotation, locations, keep_bindings: bool = False) -> Annotation:
        """``ann`` with the types at ``locations`` picked again; with
        ``keep_bindings`` every location stays bound or unbound as it was."""
        regs = {r: t for r, t in enumerate(ann.regs) if t is not None}
        for r in REGS:
            if r in locations:
                t = self.type(r, ann.star, r in regs if keep_bindings else None)
                regs.pop(r, None)
                if t is not None:
                    regs[r] = t
        slots = ann.slot_map()
        if _SLOTS in locations and ann.star is not None:
            keys = slots if keep_bindings else [k for k in SLOT_KEYS if self((False, True))]
            slots = {k: self.type(None, ann.star, True) for k in keys}
        return Annotation.make(ann.star, regs, slots)


def _step(program: Program, s, ann: Annotation, policy: str) -> Annotation | None:
    """The post-annotation the search records for reading ``s`` at the
    program's first address under byte ``policy``, or None when the
    reading fails there."""
    if not certifier._policy_allows(s, ann, policy):
        return None
    walk = certifier._Walk(certifier._Engine(program, policy), ())
    try:
        walk._take(BASE_ADDRESS, ann, s)
    except (PatternMismatch, certifier.CertError):
        return None
    return walk.rows[BASE_ADDRESS].post


def _changed(pre: Annotation, post: Annotation) -> set[int]:
    out = {r for r in REGS if pre.reg(r) != post.reg(r)}
    if pre.slots != post.slots:
        out.add(_SLOTS)
    return out


def _check(program: Program, instr: Instruction, star: int | None, pick: _Picks,
           policy: str) -> None:
    blind, inspects, writes, replaced = _effects(instr, star)
    readings = {r.op: r for r in READINGS[instr.op]}
    ann = pick.annotation(star)
    # the same placement, every location `_effects` leaves out drawn again
    others = pick.redrawn(ann, (set(REGS) | {_SLOTS}) - inspects)
    # the same bindings and placement, every type drawn again
    retyped = pick.redrawn(ann, set(REGS) | {_SLOTS}, keep_bindings=True)
    for s in raw_alternatives(instr, star, BLOBS):
        r = readings[s.op]
        post = _step(program, s, ann, policy)
        ok = post is not None
        assert (_step(program, s, others, policy) is not None) == ok, (s, ann, others)
        if r.blind or blind:
            assert (_step(program, s, retyped, policy) is not None) == ok, (s, ann, retyped)
        if not ok:
            continue
        assert _changed(ann, post) <= writes, (s, ann, post)
        # a reading that needs the stack pointer in an operand may also
        # change the slots
        allowed = {getattr(instr, r.writes)} if r.writes else set()
        if r.star not in (None, NEITHER):
            allowed.add(_SLOTS)
        assert _changed(ann, post) <= allowed, (s, ann, post)
        # an outright write does not depend on the old type it overwrites
        outright = set(replaced)
        if r.writes == "rd" and instr.rd not in (instr.rs, instr.rt):
            outright.add(instr.rd)
        renewed = pick.redrawn(ann, outright)
        again = _step(program, s, renewed, policy)
        if again is not None:
            assert all(again.reg(x) == post.reg(x) for x in outright), (s, ann, renewed)


# The byte policy filters readings before their rules run; the permissive
# one lets every byte rule run.
_CASES = [(m, DEFAULT_POLICY) for m in sorted(set(FORMATS) - {"jal"})]
_CASES += [(m, "permissive") for m in ("lb", "sb")]


@pytest.mark.parametrize("mnemonic,policy", _CASES)
@settings(max_examples=3, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_effects_agree_with_the_rules(mnemonic, policy, seed):
    # every instruction over the pools, at every placement of the stack
    # pointer, under annotations drawn from the seed
    pick = _Picks(seed)
    for instr in _instructions(mnemonic):
        program = Program([instr], labels={"L": BASE_ADDRESS}, blobs=BLOBS)
        for star in STARS:
            _check(program, instr, star, pick, policy)


def test_effects_of_a_load():
    lw = Instruction("lw", rd=T0, rs=SP, imm=4)
    # through the stack pointer: every operand and the slots
    assert _effects(lw, SP) == (False, {T0, SP, _SLOTS}, {T0, SP, _SLOTS}, set())
    # through another register: the base is inspected, the destination replaced
    assert _effects(lw, T1) == (False, {SP}, {T0}, {T0})


def test_blind_and_replacing_mnemonics():
    # with no operand holding the stack pointer and rd apart from rs
    table = {m: certifier._EFFECTS[m, False] for m in FORMATS}
    assert {m for m, (blind, _, _) in table.items() if blind} == \
        {"li", "move", "addu", "nand", "nop", "j"}
    assert {m for m, (_, outright, _) in table.items() if outright} == \
        {"li", "move", "addiu", "lw", "lb", "addu", "nand"}
    assert {m for m, (_, _, written) in table.items() if written == ("rs",)} == {"sw", "sb"}


def test_a_reading_writes_an_operand_of_its_instruction():
    for mnemonic, readings in READINGS.items():
        operands = {"rs" if f == "mem" else f for f in FORMATS[mnemonic]}
        for r in readings:
            assert r.writes is None or r.writes in operands, (mnemonic, r.op)
