from __future__ import annotations

import pytest

from aliascert.frontend import parse_program
from aliascert.isa import RA, SP, V0, Instruction, REG_INDEX
from aliascert.machine import MachineState, MachineError, build_image, run, run_by_steps, step
from aliascert.quickgen import generate_program
from aliascert.simdefs import RETURN_SENTINEL

from conftest import load


def test_addiu_semantics():
    st = MachineState()
    st.regs[SP] = 1000
    step(st, Instruction("addiu", rd=SP, rs=SP, imm=-32))
    assert st.regs[SP] == 968 and st.pc == 4


def test_store_word():
    st = MachineState()
    st.regs[REG_INDEX["t0"]] = 7
    st.regs[SP] = 968
    step(st, Instruction("sw", rd=REG_INDEX["t0"], rs=SP, imm=4))
    assert st.mem[972] == 7


def test_jal_links_and_jumps():
    st = MachineState(pc=0x400010)
    step(st, Instruction("jal", target=0x400100))
    assert st.regs[RA] == 0x400014 and st.pc == 0x400100


def test_zero_register_pinned():
    st = MachineState()
    step(st, Instruction("li", rd=0, target=42))
    assert st.reg(0) == 0


def test_byte_access_little_endian():
    st = MachineState()
    st.regs[V0] = 0x1000
    for lane, byte in enumerate((0x11, 0x22, 0x33, 0x44)):
        st.regs[REG_INDEX["t0"]] = byte
        step(st, Instruction("sb", rd=REG_INDEX["t0"], rs=V0, imm=lane))
    assert st.mem[0x1000] == 0x44332211
    step(st, Instruction("lb", rd=REG_INDEX["t1"], rs=V0, imm=2))
    assert st.regs[REG_INDEX["t1"]] == 0x33


def test_unaligned_word_access_rejected():
    st = MachineState()
    st.regs[SP] = 2
    with pytest.raises(MachineError) as e:
        step(st, Instruction("sw", rd=V0, rs=SP, imm=0))
    assert e.value.kind == "UnalignedWordAccess"


def test_uninitialized_read_rejected():
    st = MachineState()
    st.regs[SP] = 0x1000
    with pytest.raises(MachineError) as e:
        step(st, Instruction("lw", rd=V0, rs=SP, imm=0))
    assert e.value.kind == "UninitializedRead"


def test_hello_prints_and_halts(hello):
    out = run(hello)
    assert out.output == b"Hi"
    assert out.halted and out.exit_reason == "halt-device"
    assert out.ok


def test_engine_matches_step_reference(corpus_programs):
    programs = [corpus_programs[name] for name in (
        "hello", "foo_good", "foo_bad_caller",
        "table2_left", "table2_middle", "table2_right")]
    programs += [generate_program(seed) for seed in range(40)]
    # runs that end in an error, so that error_pc is compared too
    programs += [parse_program("#@ entry main\nmain:\n" + body) for body in (
        "  lw v0 0(sp)\n  jr ra\n",
        "  addiu t0 sp 2\n  sw v0 0(t0)\n  jr ra\n",
        "  li t0 0xB0000000\n  lb v0 0(t0)\n  jr ra\n",
        "  move t0 zero\n  jr t0\n",
    )]
    for p in programs:
        fast, slow = run(p), run_by_steps(p)
        assert fast.output == slow.output
        assert fast.regs == slow.regs
        assert fast.steps == slow.steps
        assert (fast.halted, fast.error, fast.error_pc, fast.exit_reason) == (
            slow.halted, slow.error, slow.error_pc, slow.exit_reason)
    assert sum(run(p).error is not None for p in programs) == 4


def test_clean_machine_blind_to_arithmetic_restore(corpus_programs):
    # the aliasing bug is invisible to exact semantics
    out = run(corpus_programs["foo_bad_caller"])
    assert out.ok and out.halted and out.exit_reason == "returned"


def test_entry_return_exits_via_sentinel():
    p = parse_program("#@ entry main\nmain:\n  jr ra\n")
    out = run(p)
    assert out.halted and out.exit_reason == "returned" and out.steps == 1


def test_fuel_exhaustion():
    p = parse_program("#@ entry main\nmain:\n  j main\n")
    out = run(p, fuel=25)
    assert out.error == "FuelExhausted" and out.steps == 25


def test_missing_entry_rejected():
    with pytest.raises(ValueError):
        build_image(parse_program("nop\n"))
    with pytest.raises(ValueError, match="'nosuch'"):
        build_image(parse_program("#@ entry main\nmain:\n  jr ra\n"), entry="nosuch")


def test_sentinel_constant_is_aligned():
    assert RETURN_SENTINEL % 4 == 0
