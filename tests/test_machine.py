from __future__ import annotations

import dataclasses

import pytest

from aliascert.aliasing import AliasConfig, run_aliased
from aliascert.frontend import parse_program
from aliascert.isa import RA, SP, V0, Instruction, REG_INDEX
from aliascert._engine import build_image
from aliascert.machine import MachineState, MachineError, run, run_by_steps, step
from aliascert.machine import RETURN_SENTINEL

from genprogs import generate_program, generate_source, mutate_source


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
    assert out.ok and out.exit_reason == "halt-device"


def test_engine_matches_step_reference(corpus_programs):
    programs = [corpus_programs[name] for name in (
        "hello", "foo_good", "foo_bad_caller",
        "table2_left", "table2_middle", "table2_right")]
    programs += [generate_program(seed) for seed in range(40)]
    # every mnemonic the corpus and the generator leave out or never take
    # both ways: addu, nand, beq taken and not, all four byte lanes
    programs.append(parse_program("#@ entry main\nmain:\n" + "".join(
        f"  {line}\n" for line in (
            "li t0 5", "li t1 7", "addu t2 t0 t1", "nand t3 t0 t1",
            "nand t4 zero zero", "nand t5 t4 t4",  # 0xffffffff, then 0
            "beq t0 t1 main", "addiu v0 v0 1",  # not taken
            "beq t5 zero over", "addiu v0 v0 100",  # taken
            "over:", "addiu sp sp -8", "li t6 4",
            "loop:", "addiu t6 t6 -1", "addu t7 t6 t2", "addu t7 t7 t6",
            "addu t8 sp t6", "sb t7 0(t8)", "bnez t6 loop",
            "lw s0 0(sp)", "lb s1 0(sp)", "lb s2 1(sp)", "lb s3 2(sp)", "lb s4 3(sp)",
            "nop", "addiu sp sp 8", "jr ra"))))
    # data the clean machine lays out in closed form: a `noinit` blob, a
    # blob read a word a step, and a blob whose last word is part filled
    programs += [parse_program("#@ entry main\nmain:\n" + body) for body in (
        "  li t0 buf\n  lw t1 0(t0)\n  lb t2 5(t0)\n  jr ra\n"
        "buf:\n  .bytes 1 2 3 4 5 6 7 8 noinit\n",
        "  li a0 words\nloop:\n  lw t0 0(a0)\n  addiu a0 a0 4\n  addu v0 v0 t0\n"
        "  bnez t0 loop\n  jr ra\nwords:\n  .bytes \"abcdefgh\" 0 0 0 0 step=4\n",
        "  li t0 msg\n  lw t1 4(t0)\n  lb t2 6(t0)\n  lb t3 7(t0)\n  jr ra\n"
        "msg:\n  .bytes \"abcdefg\"\n",
    )]
    # runs that end in an error, so that error_pc is compared too
    programs += [parse_program("#@ entry main\nmain:\n" + body) for body in (
        "  lw v0 0(sp)\n  jr ra\n",
        "  lb v0 3(sp)\n  jr ra\n",
        "  addiu t0 sp 2\n  sw v0 0(t0)\n  jr ra\n",
        "  li t0 buf\n  lw v0 1(t0)\n  jr ra\nbuf:\n  .bytes 1 2 3 4 5 6 7 8\n",
        "  li t0 0xB0000000\n  lb v0 0(t0)\n  jr ra\n",
        "  move t0 zero\n  jr t0\n",
    )]
    # the edges of the device region 0xB0000000-0xB00000FF: a store inside
    # it at neither offset, a byte store to its last byte (the reload
    # faults only inside the region), a word stored and reloaded just past
    # it, and a load just below it
    edges = [parse_program("#@ entry main\nmain:\n" + body + "  jr ra\n") for body in (
        "  li t0 0xB0000004\n  sw t0 0(t0)\n",
        "  li t0 0xB00000FF\n  sb t0 0(t0)\n  lb v0 0(t0)\n",
        "  li t0 0xB0000100\n  sw t0 0(t0)\n  lw v0 0(t0)\n",
        "  li t0 0xAFFFFFFC\n  lw v0 0(t0)\n",
    )]
    for p in programs + edges:
        fast, slow = run(p), run_by_steps(p)
        assert fast.output == slow.output
        assert fast.regs == slow.regs
        assert fast.steps == slow.steps
        assert (fast.ok, fast.error, fast.error_pc, fast.exit_reason) == (
            slow.ok, slow.error, slow.error_pc, slow.exit_reason)
    assert sum(run(p).error is not None for p in programs) == 6
    # a run out of fuel stops at the same step, on the same pc
    endless = parse_program("#@ entry main\nmain:\n  addiu t0 t0 1\n  j main\n")
    fast, slow = run(endless, fuel=25), run_by_steps(endless, fuel=25)
    assert fast == slow
    assert (fast.error, fast.error_pc, fast.steps) == ("FuelExhausted", 0x400004, 25)
    assert [run(p).error for p in edges] == [
        None, "DeviceReadUnsupported", None, "UninitializedRead"]
    assert run(edges[2]).regs[V0] == 0xB0000100
    for p in edges:
        clean = run(p)
        for seed in (1, 2, 7):
            aliased = run_aliased(p, AliasConfig(seed=seed))
            assert not aliased.faults
            assert (aliased.output, aliased.regs, aliased.steps, aliased.error,
                    aliased.error_pc, aliased.exit_reason) == (
                clean.output, clean.regs, clean.steps, clean.error,
                clean.error_pc, clean.exit_reason)


def test_clean_machine_blind_to_arithmetic_restore(corpus_programs):
    # the aliasing bug is invisible to exact semantics
    out = run(corpus_programs["foo_bad_caller"])
    assert out.ok and out.exit_reason == "returned"


def test_entry_return_exits_via_sentinel():
    p = parse_program("#@ entry main\nmain:\n  jr ra\n")
    out = run(p)
    assert out.ok and out.exit_reason == "returned" and out.steps == 1


def test_fuel_exhaustion():
    p = parse_program("#@ entry main\nmain:\n  j main\n")
    out = run(p, fuel=25)
    assert out.error == "FuelExhausted" and out.steps == 25


def test_missing_entry_rejected():
    p = parse_program("#@ entry main\nmain:\n  jr ra\nmsg:\n  .bytes 1 2\nend:\n")
    for program, entry, message in [
        (parse_program("nop\n"), None, "program has no entry pragma and no entry was given"),
        (p, "nosuch", "entry label 'nosuch' is not defined"),
        (p, "msg", "entry label 'msg' does not mark an instruction"),
        (p, "end", "entry label 'end' does not mark an instruction"),
    ]:
        for start in (build_image, run_by_steps):
            with pytest.raises(ValueError) as e:
                start(dataclasses.replace(program, entry=entry))
            assert str(e.value) == message


def test_build_image_refuses_blobs_the_parser_never_lays_out():
    # the parser starts each blob on a word boundary and never puts two in
    # one word; a hand-built program that breaks that layout is refused
    p = parse_program("#@ entry main\nmain:\n  jr ra\nmsg:\n  .bytes 1 2 3 4 5\n"
                      "buf:\n  .bytes 6 7\n")
    msg = p.labels["msg"]
    assert build_image(p).blobs == ((msg, bytes([1, 2, 3, 4, 5]), 1, True),
                                    (msg + 8, bytes([6, 7]), 1, True))
    for addr, message in [
        (msg + 9, f"data blob 'buf' at 0x{msg + 9:08x} is not on a word boundary"),
        (msg + 4, f"data blob 'buf' at 0x{msg + 4:08x} shares a word with data blob 'msg'"),
    ]:
        moved = dataclasses.replace(p, labels={**p.labels, "buf": addr})
        with pytest.raises(ValueError) as e:
            build_image(moved)
        assert str(e.value) == message


def test_every_parsed_program_has_the_blob_layout(corpus_programs):
    sources = [generate_source(seed, size) for seed in range(60) for size in (12, 32, 64)]
    programs = list(corpus_programs.values()) + [parse_program(s) for s in sources]
    programs += [parse_program(mutate_source(s, seed)) for seed, s in enumerate(sources)]
    for p in programs:
        if p.blobs and p.entry is not None:
            build_image(p)  # raises for a blob off a word boundary or in a shared word


def test_sentinel_constant_is_aligned():
    assert RETURN_SENTINEL % 4 == 0
