from __future__ import annotations

import itertools
import random

import pytest

from aliascert.annot import Annotation, calc, rep, uncalc
from aliascert.disasm import (
    BYTE_OPS,
    READ_OPS,
    STACK_ACCESS,
    WRITE_OPS,
    location_candidates,
    raw_alternatives,
    render_machine,
)
from aliascert.frontend import parse_program
from aliascert.isa import FORMATS, GP, RA, SP, V0, ZERO, DataBlob, Instruction, REG_INDEX
from aliascert.smallstep import PatternMismatch, apply_smallstep

A0 = REG_INDEX["a0"]
T0 = REG_INDEX["t0"]

# Hand transcription of the location-constraint matrix: for each opcode,
# which stack-instruction names remain per placement of the stack pointer
# (destination starred, source starred, same register).  The two-register
# "to" forms and the star-moving copy have no annotation rules and never
# appear.
LOCATION_MATRIX = {
    "move": {
        (False, True, False): ["cspt"],
        (True, False, False): ["cspf", "rspf"],
        (False, False, False): ["mov"],
        (False, False, True): ["mov"],
        (True, True, True): [],
    },
    "addiu": {
        (True, True, True): ["push"],
        (False, False, True): ["stepx", "addaiu"],
        (False, False, False): ["addaiu"],
        (True, False, False): [],
        (False, True, False): [],
    },
    "lw": {
        (False, True, False): ["get"],
        (False, False, False): ["lwfh", "getx"],
        (False, False, True): ["lwfh", "getx"],
        (True, False, False): [],
        (True, True, True): [],
    },
    "sw": {
        (False, True, False): ["put"],
        (False, False, False): ["swth", "putx"],
        (False, False, True): ["swth", "putx"],
        (True, False, False): [],
        (True, True, True): [],
    },
    "lb": {
        (False, True, False): ["getb"],
        (False, False, False): ["lbfh", "getbx"],
        (False, False, True): ["lbfh", "getbx"],
        (True, False, False): [],
        (True, True, True): [],
    },
    "sb": {
        (False, True, False): ["putb"],
        (False, False, False): ["sbth", "putbx"],
        (False, False, True): ["sbth", "putbx"],
        (True, False, False): [],
        (True, True, True): [],
    },
}


@pytest.mark.parametrize("op", sorted(LOCATION_MATRIX))
def test_location_matrix(op):
    for (rd_star, rs_star, same), expected in LOCATION_MATRIX[op].items():
        got = location_candidates(op, rd_star, rs_star, same)
        assert got == expected, (op, rd_star, rs_star, same, got)


def test_location_matrix_is_exhaustive_over_configurations():
    # every representable configuration appears in the transcription
    for op, table in LOCATION_MATRIX.items():
        configs = set(table)
        assert (False, False, False) in configs
        assert (True, True, True) in configs  # both = the one starred register
        for rd_star, rs_star, same in configs:
            if same:
                assert rd_star == rs_star


def test_readings_without_a_placement_admit_the_stack_pointer_anywhere():
    for flags in itertools.product((False, True), repeat=3):
        assert location_candidates("jal", *flags) == ["gosub"]
        assert location_candidates("beq", *flags) == ["ifeq"]
        # li reads its data blob, wherever the stack pointer is
        assert location_candidates("li", *flags) == ["newx", "newh"]
    with pytest.raises(ValueError):
        location_candidates("nosuch", False, False)


def test_access_sets_come_from_the_load_and_store_readings():
    assert READ_OPS == {"get", "getb", "getx", "getbx", "lwfh", "lbfh"}
    assert WRITE_OPS == {"put", "putb", "putx", "putbx", "swth", "sbth"}
    assert BYTE_OPS == {"getb", "putb", "getbx", "putbx", "lbfh", "sbth"}
    assert STACK_ACCESS == {"get", "put", "getb", "putb"}


def test_no_instruction_admits_a_third_reading():
    # a search choice holds the one reading left at its address, the second
    # of an instruction's two; that holds while every instruction, ``li``
    # included, has at most two readings at each placement of the stack
    # pointer
    blobs = {"s": DataBlob(b"ab\0"), "w": DataBlob(b"abcdefgh", step=4),
             "empty": DataBlob(b"", size=0), "fresh": DataBlob(b"abcd", init=False)}
    pools = {"rd": (ZERO, T0, SP), "rs": (ZERO, T0, SP), "rt": (T0, SP), "imm": (-8, 0, 8),
             "target": (*blobs, 0x400000)}
    most = 0
    for op, fields in FORMATS.items():
        names = [n for f in fields for n in (("imm", "rs") if f == "mem" else (f,))]
        for values in itertools.product(*(pools[n] for n in names)):
            i = Instruction(op, **dict(zip(names, values)))
            for star in (None, T0, SP):
                count = len(raw_alternatives(i, star, blobs))
                assert count <= 2, (i, star)
                most = max(most, count)
    assert most == 2


# -- the readings that apply (location, then small step) ---------------------

def candidates(i, a, blobs=None):
    """The readings of ``i`` whose small step applies under ``a``, tried
    in ``raw_alternatives`` order as the certifier's search tries them."""
    out = []
    for s in raw_alternatives(i, a.star, blobs):
        try:
            apply_smallstep(s, a)
        except PatternMismatch:
            continue
        out.append(s)
    return out


def test_move_from_stack_pointer():
    a = Annotation.make(star=SP, regs={SP: calc(0)})
    got = candidates(Instruction("move", rd=GP, rs=SP), a)
    assert [str(s) for s in got] == ["cspt gp"]


def test_addiu_push_only_for_negative_step():
    a = Annotation.make(star=SP, regs={SP: calc(0)})
    got = candidates(Instruction("addiu", rd=SP, rs=SP, imm=-32), a)
    assert [str(s) for s in got] == ["push 32"]
    assert candidates(Instruction("addiu", rd=SP, rs=SP, imm=32), a) == []


def test_stack_load_requires_recorded_write_and_slot():
    a = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[28])},
                        slots={28: uncalc(0)})
    got = candidates(Instruction("lw", rd=V0, rs=SP, imm=28), a)
    assert [str(s) for s in got] == ["get v0 28"]
    bare = Annotation.make(star=SP, regs={SP: calc(32, 0)})
    assert candidates(Instruction("lw", rd=V0, rs=SP, imm=28), bare) == []


def test_heap_loads_split_by_base_type():
    arr = Annotation.make(regs={A0: uncalc(8, offs=[0, 4]), V0: calc(0)})
    got = candidates(Instruction("lw", rd=V0, rs=A0, imm=4), arr)
    assert [str(s) for s in got] == ["lwfh v0 4(a0)"]
    srt = Annotation.make(regs={A0: rep(4, offs=[0]), V0: calc(0)})
    got = candidates(Instruction("lw", rd=V0, rs=A0, imm=0), srt)
    assert [str(s) for s in got] == ["getx v0 0(a0)"]


def test_li_of_blob_offers_string_then_array():
    p = parse_program('main:\n  li a0 msg\nmsg:\n  .bytes "ab\\0"\n')
    a = Annotation.make(regs={})
    got = candidates(p.instructions[0], a, p.blobs)
    assert [s.op for s in got] == ["newx", "newh"]
    assert got[0].n == 1 and got[0].offs == frozenset({0})
    assert got[1].n == 3 and got[1].offs == frozenset({0, 1, 2})


def test_li_of_a_noinit_blob_introduces_no_written_offsets():
    p = parse_program("main:\n  li a0 buf\nbuf:\n  .bytes 1 2 3 4 noinit\n")
    got = candidates(p.instructions[0], Annotation.make(regs={}), p.blobs)
    assert [str(s) for s in got] == ["newx a0 buf 1", "newh a0 buf 4"]
    assert [s.offs for s in got] == [frozenset(), frozenset()]


def test_li_of_raw_address_is_array_only():
    a = Annotation.make(regs={})
    got = candidates(Instruction("li", rd=V0, target=0xB0000010), a)
    assert [str(s) for s in got] == ["newh v1 0xb0000010 1".replace("v1", "v0")]


def test_rendering_reproduces_the_machine_instruction():
    rng = random.Random(7)
    a = Annotation.make(
        star=SP,
        regs={SP: calc(32, 0, offs=[0, 4]), GP: calc(32, 0, offs=[0]),
              A0: rep(1, offs=[0]), T0: uncalc(8, offs=[0, 4]),
              V0: calc(0), RA: uncalc(0), 0: calc(0)},
        slots={0: calc(0), 4: uncalc(0)},
    )
    instrs = [
        Instruction("move", rd=GP, rs=SP), Instruction("move", rd=SP, rs=GP),
        Instruction("move", rd=V0, rs=T0),
        Instruction("addiu", rd=SP, rs=SP, imm=-16),
        Instruction("addiu", rd=A0, rs=A0, imm=1),
        Instruction("addiu", rd=V0, rs=V0, imm=12),
        Instruction("lw", rd=V0, rs=SP, imm=0), Instruction("sw", rd=V0, rs=SP, imm=4),
        Instruction("lw", rd=V0, rs=T0, imm=4), Instruction("sw", rd=V0, rs=T0, imm=0),
        Instruction("lb", rd=V0, rs=A0, imm=0), Instruction("sb", rd=V0, rs=A0, imm=0),
        Instruction("jal", target=0x400100), Instruction("jr", rd=RA),
        Instruction("j", target=0x400100), Instruction("bnez", rd=V0, target=0x400100),
        Instruction("beq", rd=V0, rs=GP, target=0x400100),
        Instruction("addu", rd=V0, rs=V0, rt=V0),
        Instruction("nand", rd=V0, rs=V0, rt=V0),
        Instruction("li", rd=V0, target=0xB0000000),
        Instruction("nop"),
    ]
    rng.shuffle(instrs)
    checked = 0
    for i in instrs:
        for s in raw_alternatives(i, a.star, None):
            assert render_machine(s, a.star) == i, (str(s), str(i))
            checked += 1
    assert checked >= 25
