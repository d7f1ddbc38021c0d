"""Soundness beyond the corpus: the trace oracle and the safety re-check
accept the theory of a program the certifier calls SAFE, and each of its
loads reads only bytes that the load's own calculation wrote, so one
symbolic run settles every seed of a sweep and stands for the clean run
(see the `_engine` docstring).  Nor does the clean run of a SAFE program,
mutated or not, fault on a word access off a word boundary."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from aliascert import _engine, certify_program, check_program, check_safety, parse_program
from aliascert.aliasing import diff_runs
from aliascert.machine import DEFAULT_FUEL, run

from genprogs import generate_source, mutate_source


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), size=st.sampled_from((12, 32, 64)))
def test_certified_program_is_settled_by_one_run(seed, size):
    p = parse_program(generate_source(seed, size))
    report = certify_program(p)
    assume(report.safe)
    assert check_program(report.theory) == [] and check_safety(report.theory) == []
    symbolic = _engine.run_symbolic_image(_engine.build_image(p), DEFAULT_FUEL)
    assert not symbolic.mixed and not symbolic.outcome.faults
    runs = []
    loop, clean_loop = _engine._run, _engine.run_clean_image

    def seeded(image, fuel, seed, salt, blobs, *rest):
        if salt is _engine.tag:
            runs.append(("seeded", seed))
        return loop(image, fuel, seed, salt, blobs, *rest)

    def clean(image, fuel, start=None):
        runs.append(("clean", "full" if start is None else "resumed"))
        return clean_loop(image, fuel, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_run", seeded)
        mp.setattr(_engine, "run_clean_image", clean)
        rep = diff_runs(p, seeds=20)
    assert rep.ok and not runs
    assert (rep.checked_words, rep.seeded_runs) == (0, 0)


# the certifier bounds `a` by its declared size; the parser once laid `b`
# out right after `a`'s four bytes, so the store at `a + 4` wrote `b`
_DECLARED_SIZE = ("#@ entry main\nmain:\n  li t0 a\n  move t1 zero\n  addiu t1 t1 9\n"
                  "  sw t1 4(t0)\n  li t2 b\n  lw t3 0(t2)\n  jr ra\n"
                  "a: .bytes 1 2 3 4 size=8\nb: .bytes 5 6 7 8\n")


def test_a_store_inside_a_declared_size_reaches_no_other_blob():
    p = parse_program(_DECLARED_SIZE)
    report = certify_program(p)
    assert report.verdict == "SAFE"
    assert check_program(report.theory) == [] and check_safety(report.theory) == []
    for seeds in (5, 10):
        rep = diff_runs(p, seeds=seeds)
        assert rep.divergences == [] and rep.seeded_runs == 0
    assert run(p).regs[11] == 0x08070605


# the string in `s` ends at its data, yet `c^rep(1)` carries no length: the
# clean run reads the zero padding byte at `s + 2`, which the aliasing
# machine's string chain never stored
_PAST_THE_DATA = ('#@ entry main\nmain:\n  li t0 s\n  move t1 zero\nloop:\n  lb t1 0(t0)\n'
                  '  addiu t0 t0 1\n  bnez t1 loop\n  jr ra\ns: .bytes "ab"\nt: .bytes "cd\\0"\n')


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: a string read past its blob's data "
                                       "is certified SAFE")
def test_a_string_read_past_its_blob_data_is_not_certified_safe():
    p = parse_program(_PAST_THE_DATA)
    report = certify_program(p)
    assert not report.safe or diff_runs(p, seeds=5).ok


# `a`'s declared size puts `b` at 0x7fffeffc, below the initial stack
# pointer but on the word where main saves ra: the clean run's load reads
# the return address, not `b`'s bytes
_UNDER_A_FRAME = ("#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -8\n  sw ra 4(sp)\n"
                  "  li t1 b\n  lw t2 0(t1)\n  lw ra 4(sp)\n  move sp gp\n  jr ra\n"
                  "a: .bytes 1 2 3 4 size=2143285212\nb: .bytes 5 6 7 8\n")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: data laid under a frame is "
                                       "certified SAFE")
def test_data_laid_under_a_frame_is_not_certified_safe():
    p = parse_program(_UNDER_A_FRAME)
    assert p.labels["b"] == 0x7FFFEFFC
    report = certify_program(p)
    assert not report.safe or diff_runs(p, seeds=8).ok


# both ran clean into UnalignedWordAccess once certified SAFE: a word
# stored and reloaded at offset 1, and a mutant whose frame is 7 bytes
_MISALIGNED = [
    ("#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -8\n  sw ra 1(sp)\n"
     "  lw ra 1(sp)\n  move sp gp\n  jr ra\n", "sw ra 1(sp)"),
    (mutate_source(generate_source(180, 24), 180), "addiu sp sp -7"),
]


@pytest.mark.parametrize("source, line", _MISALIGNED, ids=["offset", "frame"])
def test_misaligned_word_access_is_unsafe(source, line):
    p = parse_program(source)
    assert run(p).error == "UnalignedWordAccess"
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert p.source_lines[failure.addr] == line
    assert "not a multiple of 4" in failure.detail


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), size=st.sampled_from((24, 64)))
def test_certified_mutant_never_faults_on_alignment(seed, size):
    p = parse_program(mutate_source(generate_source(seed, size), seed))
    assume(certify_program(p).safe)
    assert run(p).error != "UnalignedWordAccess"
