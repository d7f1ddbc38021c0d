"""Sharing objects changes no result.

The parser gives lines with the same instruction text one
``Instruction``, the search shares each instruction's readings, and the
oracle each stack instruction's events.  Every program below is
certified as parsed, and again with every instruction rebuilt as an
object of its own: the report, the oracle, the safety re-check and the
search counters must be equal.

The oracle and the report also take shortcuts when two objects are one:
the oracle goes on from a row's recorded annotation once its fold equals
it, and the report renders each object once.  A deep copy of a report,
or of a theory and each of its row mutations from
``test_oracle_digests``, shares no object with the certifier's, and
must give the same report and the same violations.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from aliascert import certify_program, parse_program
from aliascert.certifier import BYTE_POLICIES, DEFAULT_POLICY, check_safety
from aliascert.cli import build_report
from aliascert.traces import check_program

from conftest import CORPUS
from test_oracle_digests import _mutants
from genprogs import (
    call_chain,
    call_sites,
    generate_source,
    kli_branch_source,
    kli_callee_source,
    kli_move_source,
    kli_source,
    mutate_source,
    straight_line,
)


def _sources():
    for path in sorted(CORPUS.glob("*.s")):
        for policy in BYTE_POLICIES:
            yield f"{path.name}/{policy}", path.read_text(), policy
    for make in (kli_source, kli_move_source, kli_branch_source, kli_callee_source):
        for k in (4, 7):
            for unsafe in (False, True):
                yield f"{make.__name__}({k}, {unsafe})", make(k, unsafe), DEFAULT_POLICY
    for size in (100, 400):
        yield f"straight_line({size})", straight_line(size), DEFAULT_POLICY
        yield f"call_sites({size})", call_sites(size), DEFAULT_POLICY
    yield "call_chain(6)", call_chain(6), DEFAULT_POLICY
    for seed in range(40):
        for size in (12, 32):
            source = generate_source(seed, size)
            yield f"generate_source({seed}, {size})", source, DEFAULT_POLICY
            yield f"mutate_source({seed}, {size})", mutate_source(source, seed), DEFAULT_POLICY


def _unshared(program):
    """``program`` with each instruction an object of its own."""
    return dataclasses.replace(
        program, instructions=[dataclasses.replace(i) for i in program.instructions])


def _results(program, policy: str):
    report = certify_program(program, policy=policy)
    theory = report.theory
    return (build_report("p.s", program.entry, policy, report),
            check_program(theory) if theory is not None else None,
            check_safety(theory, policy) if theory is not None else None,
            report.stats)


@pytest.mark.parametrize("source,policy", [pytest.param(source, policy, id=name)
                                           for name, source, policy in _sources()])
def test_unshared_instructions_give_the_same_results(source, policy):
    shared = parse_program(source)
    unshared = _unshared(shared)
    assert len({id(i) for i in unshared.instructions}) == len(unshared.instructions)
    assert _results(unshared, policy) == _results(shared, policy)


def test_most_programs_above_share_instructions():
    # the sharing that the test above undoes is there to undo
    programs = [parse_program(source) for _, source, _ in _sources()]
    shared = [p for p in programs if len({id(i) for i in p.instructions}) < len(p.instructions)]
    assert len(shared) > 0.8 * len(programs)


# -- no shortcut depends on object identity ------------------------------------

def _identity_sources():
    for path in sorted(CORPUS.glob("*.s")):
        yield path.name, path.read_text()
    for seed in range(60):
        for size in (12, 32):
            yield f"generate_source({seed}, {size})", generate_source(seed, size)


def _violations(theory) -> list[str]:
    return [str(v) for v in check_program(theory)]


@pytest.mark.parametrize("source", [pytest.param(source, id=name)
                                    for name, source in _identity_sources()])
def test_a_deep_copy_gives_the_same_report_and_violations(source):
    program = parse_program(source)
    report = certify_program(program)
    copied = copy.deepcopy(report)
    assert build_report("p.s", program.entry, DEFAULT_POLICY, copied) == \
        build_report("p.s", program.entry, DEFAULT_POLICY, report)
    if report.theory is None:
        return
    assert _violations(copied.theory) == _violations(report.theory)
    # the mutants of the copy and of the theory come in the same order
    pairs = zip(_mutants(report.theory), _mutants(copied.theory), strict=True)
    for mutant, copied_mutant in pairs:
        assert _violations(copied_mutant) == _violations(mutant)
