"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They run a few short passes in-process and check the generated answers,
that tracing changes no verdict or output, and that the exact counts
repeat.  No test asserts a wall-clock value.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workload  # noqa: E402
from tracing import Tracer  # noqa: E402

from aliascert.aliasing import AliasConfig, run_aliased  # noqa: E402
from aliascert.frontend import parse_program  # noqa: E402
from aliascert.machine import run_by_steps  # noqa: E402

EXACT = ("certifier.rows", "certifier.routines", "certifier.certify.errors",
         "disasm.readings", "smallstep.n", "smallstep.PatternMismatch",
         "annotation.join.n", "engine.clean_steps", "engine.alias_steps",
         "aliasing.divergences")


class SmallBench(workload.Bench):
    """A workload cut down to a few cheap inputs, so a pass takes well
    under a second."""

    def __init__(self, name: str, seed: int, tmp: Path, keep):
        super().__init__(name, seed, tmp / f"{name}-{seed}")
        picked = [i for i, case in enumerate(self.cases) if keep(case)]
        self.cases = [self.cases[i] for i in picked]
        self.args = [self.args[i] for i in picked]


def _cheap(case: gen.Case) -> bool:
    if case.family in ("straight", "calls"):
        # one size that certifies and one past the recursion limit
        return case.name.endswith("_0.s") and case.instructions in (200, 800)
    if case.family == "kli":
        return case.k <= 6
    return case.name in ("hello.s", "foo_bad_caller.s", "foo_bad.s", "table2_middle.s")


def _sweep_small(monkeypatch):
    monkeypatch.setattr(gen, "COUNTER_ITERATIONS", 50)
    monkeypatch.setattr(gen, "TEXT_CHARS", 40)


WORKLOADS = ["certify_scale", "certify_backtrack", "sweep_clean", "sweep_fault"]


@pytest.fixture
def small(monkeypatch, tmp_path):
    _sweep_small(monkeypatch)
    return lambda name, seed=1: SmallBench(name, seed, tmp_path, _cheap)


def _answers(bench: workload.Bench) -> list[tuple]:
    return [(op["case"], op["error"]) for op in bench.ops]


def _traced_pass(bench: workload.Bench) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_agree(small, name):
    plain, traced = small(name), small(name)
    plain.run_pass()
    _traced_pass(traced)
    assert not plain.wrong and not traced.wrong
    assert _answers(plain) == _answers(traced)


@pytest.mark.parametrize("name", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(small, name):
    first, second = _traced_pass(small(name)), _traced_pass(small(name))
    assert {k: first.counts[k] for k in EXACT} == {k: second.counts[k] for k in EXACT}
    assert first.counts["cli.n"] + first.counts["aliasing.sweep.n"] > 0


def test_recursion_defect_counts_as_failed_operation(small):
    bench = small("certify_scale")
    bench.run_pass()
    assert not bench.wrong
    assert bench.failures == {"RecursionError": 2}  # both families at 800 instructions


def test_traced_spans_nest_under_their_operation(small):
    bench = small("sweep_fault")
    tracer = _traced_pass(bench)
    names = {s[0] for s in tracer.spans}
    assert {"aliasing.sweep", "machine.build_image", "engine.clean", "engine.alias",
            "aliasing.compare"} <= names
    for name, start, end, parent, op in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][4] == op
    assert tracer.counts["aliasing.divergences"] == gen.SWEEP_SEEDS * len(bench.cases)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_answers_match_the_reference_interpreter(monkeypatch, seed):
    _sweep_small(monkeypatch)
    corpus = workload.ROOT / "corpus"
    for case in gen.sweep_clean(seed, corpus) + gen.sweep_fault(seed, corpus):
        program = parse_program(case.source)
        clean = run_by_steps(program)
        assert (clean.output, clean.steps) == (case.output, case.clean_steps)
        aliased = run_aliased(program, AliasConfig(seed=seed))
        assert aliased.steps == case.alias_steps
        assert [f.pc for f in aliased.faults][:1] == ([case.fault_pc] if case.fault_pc else [])


def test_inputs_depend_on_the_seed_but_not_their_size():
    a, b = gen.certify_scale(1), gen.certify_scale(2)
    assert [c.instructions for c in a] == [c.instructions for c in b]
    assert [c.source for c in a] != [c.source for c in b]
    assert gen.certify_scale(1) == a


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "sweep_clean",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_result_line_holds_every_metric(monkeypatch, tmp_path):
    _sweep_small(monkeypatch)
    spec = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record = workload.run("sweep_clean", 1, 0.0, bool(trace), tmp_path)
        names = {m["name"] for m in spec[key]}
        assert set(record["metrics"]) == names
        assert record["correct"] and record["attempted"] == 3 * (1 + trace)
