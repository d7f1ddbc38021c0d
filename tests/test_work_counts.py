"""Exact work counts of ``certify``, ``run --seed`` and ``diff`` per input.

``work_counts.json`` holds, for each certify input below, what the
certify command does to it, counted by wrapping functions from the test:
the instruction lines and the distinct ``Instruction`` objects the parser
makes of them, the calls of ``frontend._parse_instruction``,
``certifier.raw_alternatives``, ``certifier.apply_smallstep`` (and how
many of them raised ``PatternMismatch``), ``certifier._effects``,
``traces.events_of`` and ``traces.fold_event``, the rows of the theory,
and the search's readings, backtracks and backjumps.  The oracle runs only on a SAFE
theory, as the command runs it.

Each ``run/`` entry holds what the interpreter does to one program: the
steps, the ``_engine._block`` calls and the ``_engine.tag`` calls by
domain of one aliasing run at seed 1 (``alias_*``), and of a sweep over
the benchmark's 8 seeds (``sweep_*``), whose steps add up the symbolic
run, the resumed clean run and the seeded loops, with the clean run's
steps, the seeded loops run, the size of the symbolic run's closure and
the number of keys it interned.
Counts do not drift with the host's speed, so a change to the work shows
here exactly.

Regenerate the fixture (only when a change to the work is intended)
with ``PYTHONPATH=src python tests/test_work_counts.py``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from aliascert import _engine, certifier, frontend, traces
from aliascert.aliasing import AliasConfig, diff_runs, run_aliased
from aliascert.certifier import certify_program
from aliascert.frontend import parse_program
from aliascert.smallstep import PatternMismatch
from aliascert.traces import check_program

from genprogs import (
    call_sites,
    generate_source,
    kli_branch_source,
    kli_callee_source,
    kli_move_source,
    kli_source,
    straight_line,
)
from test_alias import CACHE_CORNERS
from test_symbolic_digests import _loop_source

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "work_counts.json"

SCALE_SIZES = (100, 400, 1600)
KLI_FAMILIES = (kli_source, kli_move_source, kli_branch_source, kli_callee_source)
KLI_KS = (4, 7, 10)
COUNTED = ((frontend, "_parse_instruction"), (certifier, "raw_alternatives"),
           (certifier, "_effects"), (traces, "events_of"), (traces, "fold_event"),
           (_engine, "_block"))
SWEEP_SEEDS = 8  # the benchmark's seeds per sweep
DOMAINS = {v: k[2:] for k, v in vars(_engine).items() if k.startswith("T_")}


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


def _run_cases():
    for path in sorted(CORPUS.glob("*.s")):
        yield f"run/corpus/{path.name}", path.read_text()
    for seed in range(10):
        yield f"run/genprogs/{seed}_32", generate_source(seed, 32)
    for shape in ("counter", "string"):
        for faulty in (False, True):
            yield f"run/loop/{shape}_{'fault' if faulty else 'clean'}", _loop_source(shape, faulty)
    for name, source in CACHE_CORNERS.items():
        yield f"run/cache/{name}", source


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
        "fold_event_calls": calls["fold_event"],
        "apply_smallstep_calls": calls["apply_smallstep"],
        "pattern_mismatches": calls["PatternMismatch"],
        "effects_calls": calls["_effects"],
        "rows": sum(len(cert.rows) for cert in routines),
        "readings": report.stats.readings,
        "backtracks": report.stats.backtracks,
        "backjumps": report.stats.backjumps,
    }


def run_counts(source: str, calls: Counter) -> dict[str, object]:
    """The work of ``run --seed 1`` and of ``diff --seeds 8`` on
    ``source``; ``calls`` counts the wrapped functions."""
    program = parse_program(source)
    out = {}
    for phase, run in (("alias", lambda: run_aliased(program, AliasConfig(seed=1))),
                       ("sweep", lambda: diff_runs(program, seeds=SWEEP_SEEDS))):
        calls.clear()
        try:
            result = run()
        except ValueError:  # a sweep refuses a program whose clean run fails
            result = None
        out[f"{phase}_steps"] = calls["steps"]
        out[f"{phase}_blocks"] = calls["_block"]
        out[f"{phase}_tags"] = {DOMAINS[d]: calls[d] for d in sorted(DOMAINS) if calls[d]}
    out["clean_steps"] = None if result is None else result.clean.steps
    out["seeded_runs"] = None if result is None else result.seeded_runs
    out["closure"] = calls["closure"]
    out["interned"] = calls["interned"]
    return out


def _counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counting_smallstep(calls: Counter, fn):
    def wrapper(s, a):
        calls["apply_smallstep"] += 1
        try:
            return fn(s, a)
        except PatternMismatch:
            calls["PatternMismatch"] += 1
            raise
    return wrapper


def _counting_tag(calls: Counter, fn):
    def wrapper(seed, domain, *vals):
        calls[domain] += 1
        return fn(seed, domain, *vals)
    return wrapper


def _counting_run(calls: Counter, fn):
    # the steps one loop executes: a resumed run starts at ``start.steps``
    def wrapper(image, fuel, seed, salt, mixed=None, start=None, *rest):
        out = fn(image, fuel, seed, salt, mixed, start, *rest)
        calls["steps"] += out.steps - (start.steps if start is not None else 0)
        return out
    return wrapper


def _symbolic_size(calls: Counter, fn):
    def wrapper(image, fuel):
        symbolic = fn(image, fuel)
        calls["closure"] += len(symbolic.closure)
        calls["interned"] += symbolic.interned
        return symbolic
    return wrapper


def compute_counts(patch) -> dict[str, dict[str, object]]:
    """Every input's counts, with ``patch(module, name, value)`` setting
    each counting wrapper."""
    calls: Counter = Counter()
    for module, name in COUNTED:
        patch(module, name, _counting(calls, name, getattr(module, name)))
    patch(certifier, "apply_smallstep", _counting_smallstep(calls, certifier.apply_smallstep))
    patch(_engine, "tag", _counting_tag(calls, _engine.tag))
    patch(_engine, "_run", _counting_run(calls, _engine._run))
    patch(_engine, "run_symbolic_image", _symbolic_size(calls, _engine.run_symbolic_image))
    counts = {key: work_counts(source, calls) for key, source in _cases()}
    counts.update((key, run_counts(source, calls)) for key, source in _run_cases())
    return counts


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
        if not key.startswith("run/"):
            assert c["parse_instruction_calls"] == c["distinct_instructions"], key


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        FIXTURE.write_text(json.dumps(compute_counts(mp.setattr), indent=1, sort_keys=True) + "\n")
