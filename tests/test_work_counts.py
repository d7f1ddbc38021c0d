"""Exact work counts of ``certify`` per input.

``work_counts.json`` holds, for each input below, what the certify
command does to it, counted by wrapping functions from the test: the
instruction lines and the distinct ``Instruction`` objects the parser
makes of them, the calls of ``frontend._parse_instruction``,
``certifier.raw_alternatives`` and ``traces.events_of``, the rows of the
theory, and the search's readings, backtracks and backjumps.  The oracle
runs only on a SAFE theory, as the command runs it.  Counts do not drift
with the host's speed, so a change to the work shows here exactly.

Regenerate the fixture (only when a change to the work is intended)
with ``PYTHONPATH=src python tests/test_work_counts.py``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from aliascert import certifier, frontend, traces
from aliascert.certifier import certify_program
from aliascert.frontend import parse_program
from aliascert.traces import check_program

from genprogs import (
    call_sites,
    kli_branch_source,
    kli_callee_source,
    kli_move_source,
    kli_source,
    straight_line,
)

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "work_counts.json"

SCALE_SIZES = (100, 400, 1600)
KLI_FAMILIES = (kli_source, kli_move_source, kli_branch_source, kli_callee_source)
KLI_KS = (4, 7, 10)
COUNTED = ((frontend, "_parse_instruction"), (certifier, "raw_alternatives"),
           (traces, "events_of"))


def _cases():
    for path in sorted(CORPUS.glob("*.s")):
        yield f"corpus/{path.name}", path.read_text()
    for make in (straight_line, call_sites):
        for size in SCALE_SIZES:
            yield f"scale/{make.__name__}_{size}", make(size)
    for make in KLI_FAMILIES:
        for k in KLI_KS:
            for unsafe in (False, True):
                yield (f"kli/{make.__name__[:-7]}_{k:02d}_{'unsafe' if unsafe else 'safe'}",
                       make(k, unsafe))


def work_counts(source: str, calls: Counter) -> dict[str, int]:
    """The work of certifying ``source``; ``calls`` counts the wrapped
    functions and is emptied first."""
    calls.clear()
    program = parse_program(source)
    report = certify_program(program)
    if report.safe:
        check_program(report.theory)
    routines = report.theory.routines.values() if report.theory is not None else ()
    return {
        "instructions": len(program.instructions),
        "distinct_instructions": len({id(i) for i in program.instructions}),
        "parse_instruction_calls": calls["_parse_instruction"],
        "raw_alternatives_calls": calls["raw_alternatives"],
        "events_of_calls": calls["events_of"],
        "rows": sum(len(cert.rows) for cert in routines),
        "readings": report.stats.readings,
        "backtracks": report.stats.backtracks,
        "backjumps": report.stats.backjumps,
    }


def _counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def compute_counts(patch) -> dict[str, dict[str, int]]:
    """Every input's counts, with ``patch(module, name, value)`` setting
    each counting wrapper."""
    calls: Counter = Counter()
    for module, name in COUNTED:
        patch(module, name, _counting(calls, name, getattr(module, name)))
    return {key: work_counts(source, calls) for key, source in _cases()}


@pytest.fixture(scope="module")
def counts():
    with pytest.MonkeyPatch.context() as mp:
        yield compute_counts(mp.setattr)


def test_work_matches_recorded_counts(counts):
    expected = json.loads(FIXTURE.read_text())
    assert sorted(counts) == sorted(expected)
    changed = {key: (expected[key], counts[key]) for key in expected
               if counts[key] != expected[key]}
    assert not changed, changed


def test_each_distinct_instruction_text_is_parsed_once(counts):
    for key, c in counts.items():
        assert c["parse_instruction_calls"] == c["distinct_instructions"], key


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        FIXTURE.write_text(json.dumps(compute_counts(mp.setattr), indent=1, sort_keys=True) + "\n")
