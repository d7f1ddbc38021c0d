"""Programs of thousands of instructions certify under Python's default
recursion limit: the search, the trace oracle and the report walk them
with loops, not one stack frame per instruction.  Only call nesting
takes Python's stack, and nesting deeper than it allows gets a verdict
of its own."""

from __future__ import annotations

import sys

import pytest

from aliascert import certify_program, check_program, check_safety, parse_program
from aliascert.cli import main

from genprogs import call_chain, call_sites, straight_line

SIZE = 3200


def forward_branches(count: int) -> str:
    """``count`` branches in a row, each over one instruction to the next
    branch: every fall-through stays pending until the last target ends."""
    lines = ["#@ entry main", "#@ assume main: sp*=c^[0], ra=u^0", "main:"]
    for i in range(count):
        lines += [f"    bnez zero L{i}", "    nop", f"L{i}:"]
    lines.append("    jr ra")
    return "\n".join(lines) + "\n"


def _reachable(program, entry: int) -> set[int]:
    """Addresses reachable from ``entry`` without entering a call."""
    seen, work = set(), [entry]
    while work:
        addr = work.pop()
        if addr in seen:
            continue
        seen.add(addr)
        i = program.instruction_at(addr)
        if i.op == "jr":
            continue
        if i.op in ("j", "bnez", "beq"):
            work.append(program.resolve(i.target))
            if i.op == "j":
                continue
        work.append(addr + 4)
    return seen


@pytest.mark.parametrize("source", [straight_line(SIZE), call_sites(SIZE),
                                    forward_branches(SIZE // 3)],
                         ids=["straight_line", "call_sites", "forward_branches"])
def test_large_program_certifies_safe(source):
    assert sys.getrecursionlimit() <= 1000  # Python's default, never raised
    program = parse_program(source)
    report = certify_program(program)
    assert report.verdict == "SAFE", report.failures
    assert check_program(report.theory) == []
    assert check_safety(report.theory) == []
    covered = set()
    for cert in report.theory.routines.values():
        assert set(cert.rows) == _reachable(program, cert.entry_addr), cert.label
        covered |= set(cert.rows)
    assert len(covered) == len(program.instructions)


def test_large_program_through_the_cli(tmp_path, capsys):
    path = tmp_path / "calls.s"
    path.write_text(call_sites(SIZE))
    assert main(["certify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("verdict: SAFE")
    assert "\ntrace oracle: ok\n" in out


def test_call_chain_within_the_stack_certifies_safe():
    report = certify_program(parse_program(call_chain(150)))
    assert report.verdict == "SAFE", report.failures
    assert len(report.theory.routines) == 151
    assert check_program(report.theory) == []


def test_call_chain_deeper_than_the_stack_is_unsupported(tmp_path, capsys):
    assert sys.getrecursionlimit() <= 1000
    source = call_chain(300)
    report = certify_program(parse_program(source))
    assert report.verdict == "UNSUPPORTED" and report.theory is None
    (failure,) = report.failures
    assert failure.kind == "CallDepthExceeded"
    path = tmp_path / "chain.s"
    path.write_text(source)
    assert main(["certify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "failure: CallDepthExceeded at <program>" in out
    assert out.rstrip().endswith("verdict: UNSUPPORTED")
