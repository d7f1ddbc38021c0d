from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from aliascert.annot import Calc, Finite, Offsets, Rep, SetVar, TypeVar, Uncalc, calc, rep, uncalc
from aliascert.annotation import Annotation
from aliascert.frontend import (
    AsmSyntaxError,
    DuplicateLabel,
    parse_annotation,
    parse_program,
    parse_type,
    serialize_annotation,
)
from aliascert.isa import BASE_ADDRESS, FORMATS, GP, IMM_MAX, IMM_MIN, RA, SP, REG_INDEX, Instruction


# -- instruction parsing -------------------------------------------------------

def test_move_parses():
    p = parse_program("move gp sp\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.rs) == ("move", GP, SP)


def test_addiu_negative_immediate():
    p = parse_program("addiu sp sp -32\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.rs, i.imm) == ("addiu", SP, SP, -32)


def test_unknown_mnemonic_rejected():
    with pytest.raises(AsmSyntaxError) as e:
        parse_program("lwz r1 0(sp)\n")
    assert e.value.line == 1


def test_bad_register_and_arity_and_overflow():
    with pytest.raises(AsmSyntaxError):
        parse_program("move gp xx\n")
    with pytest.raises(AsmSyntaxError):
        parse_program("move gp\n")
    with pytest.raises(AsmSyntaxError):
        parse_program("addiu sp sp 40000\n")


def test_memory_operand_form():
    p = parse_program("sw ra 28(sp)\n")
    (i,) = p.instructions
    assert (i.op, i.rd, i.imm, i.rs) == ("sw", RA, 28, SP)


def test_register_number_aliases():
    p = parse_program("move r28 r29\n")
    (i,) = p.instructions
    assert (i.rd, i.rs) == (GP, SP)


def test_addresses_stride_by_four():
    p = parse_program("nop\nnop\nl:\nnop\n")
    assert [p.address_of(k) for k in range(3)] == [
        BASE_ADDRESS, BASE_ADDRESS + 4, BASE_ADDRESS + 8]
    assert p.labels["l"] == BASE_ADDRESS + 8


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        parse_program("a:\nnop\na:\nnop\n")
    with pytest.raises(DuplicateLabel) as e:
        parse_program("msg:\n.bytes 1\nmsg:\n.bytes 2\n")
    assert e.value.line == 3


def test_unresolved_reference_rejected():
    with pytest.raises(AsmSyntaxError):
        parse_program("j nowhere\n")


def test_data_blob_and_attributes():
    p = parse_program('nop\nmsg:\n  .bytes "Hi\\0" step=2 size=4 noinit\n')
    blob = p.blobs["msg"]
    assert blob.data == b"Hi\0"
    assert (blob.step, blob.byte_size, blob.init) == (2, 4, False)
    assert p.labels["msg"] == BASE_ADDRESS + 4


def test_pragmas_parse():
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\nmain:\nnop\n")
    assert p.entry_label() == "main"
    ann = p.assume_for("main")
    assert ann.star == SP
    assert ann.reg(RA) == uncalc(0)


_LABELS = ("main", "loop_2", "$end")
_REGS = st.integers(0, 31)
_IMMS = st.integers(IMM_MIN, IMM_MAX)
_FIELDS = {
    "rd": {"rd": _REGS}, "rs": {"rs": _REGS}, "rt": {"rt": _REGS},
    "imm": {"imm": _IMMS},
    "mem": {"imm": _IMMS, "rs": _REGS},
    "target": {"target": st.one_of(st.sampled_from(_LABELS), st.integers(0, 0xFFFFFFFF))},
}


def _instructions(op: str):
    fields = {}
    for f in FORMATS[op]:
        fields.update(_FIELDS[f])
    return st.builds(Instruction, st.just(op), **fields)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(i=st.sampled_from(sorted(FORMATS)).flatmap(_instructions))
def test_printed_instruction_parses_back(i):
    labels = "".join(f"{name}:\n  nop\n" for name in _LABELS)
    assert parse_program(f"{labels}  {i}\n").instructions[-1] == i


# -- annotation grammar ---------------------------------------------------------

def test_tower_serialization():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[16, 24, 28])})
    assert serialize_annotation(a) == "sp*=c^[32,0]!{16,24,28}"


def test_u0_serialization():
    a = Annotation.make(regs={RA: uncalc(0)})
    assert serialize_annotation(a) == "ra=u^0"


def test_repeating_tower_serialization():
    a = Annotation.make(regs={REG_INDEX["a0"]: rep(1, offs=[0])})
    assert serialize_annotation(a) == "a0=c^rep(1)!{0}"


def test_register_order_is_fixed_and_slots_ascend():
    a = Annotation.make(
        star=SP,
        regs={RA: uncalc(0), SP: calc(8, offs=[0, 4]), 0: calc(0)},
        slots={4: calc(0), 0: uncalc(0)},
    )
    assert serialize_annotation(a) == (
        "zero=c^[0], sp*=c^[8]!{0,4}, ra=u^0, (0)=u^0, (4)=c^[0]")


def test_parse_type_forms():
    assert parse_type("c^[32,0]!{16,24,28}") == calc(32, 0, offs=[16, 24, 28])
    assert parse_type("c^rep(4)") == rep(4)
    assert parse_type("u^8!{0}") == uncalc(8, offs=[0])
    assert parse_type("?x") == TypeVar("x")
    assert parse_type("c^[0]!?X") == Calc(Finite((0,)), SetVar("X"))


def test_bare_u_is_unparseable():
    with pytest.raises(ValueError):
        parse_type("u")
    with pytest.raises(ValueError):
        parse_type("c")


def test_two_stars_rejected():
    with pytest.raises(ValueError):
        parse_annotation("sp*=c^[0], gp*=c^[0]")


def _random_annotation(rng: random.Random) -> Annotation:
    regs, slots, star = {}, {}, None
    frame = rng.choice([0, 8, 16, 32])
    if rng.random() < 0.8:
        star = rng.choice([SP, GP])
        offs = sorted(rng.sample(range(0, max(frame - 3, 1), 4),
                                 k=rng.randrange(0, max(frame // 8, 1))))
        regs[star] = calc(frame, 0, offs=offs)
        for k in offs:
            if rng.random() < 0.7:
                slots[k] = rng.choice([calc(0), uncalc(0), TypeVar("x")])
    for name in rng.sample(["v0", "v1", "a0", "t0", "ra"], k=rng.randrange(0, 4)):
        r = REG_INDEX[name]
        if r == star:
            continue
        regs[r] = rng.choice([
            calc(0), uncalc(0), rep(rng.choice([1, 2, 4]), offs=[0]),
            uncalc(8, offs=[0, 4]), TypeVar(rng.choice("xyz")),
            Calc(Finite((8,)), SetVar("X")),
        ])
    return Annotation.make(star=star, regs=regs, slots=slots)


def test_round_trip_on_random_annotations():
    rng = random.Random(42)
    for _ in range(300):
        a = _random_annotation(rng)
        assert parse_annotation(serialize_annotation(a)) == a


def test_round_trip_on_certified_corpus(hello_report):
    for cert in hello_report.theory.routines.values():
        for row in cert.rows.values():
            for ann in (row.pre, row.post):
                assert parse_annotation(serialize_annotation(ann)) == ann
