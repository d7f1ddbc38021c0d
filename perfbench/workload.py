"""One workload in one fresh process: generate, measure, check, report.

Run by ``run.py`` as ``workload.py --workload W --seed N --seconds S
--trace 0|1``.  Operations run one at a time from a single
caller (a closed loop with one client), in whole passes over the
workload's inputs until ``--seconds`` have passed, so every run measures
the same mix.  Each operation is checked against the answer its input
was built with.  The last line of standard output is a JSON object with
the result; the full record (provenance, failures by exception type, a
row per input, the traced spans) goes under ``.perfbench/``.

The recursion limit and the stack are Python's defaults and are never
raised: an exception in an operation, RecursionError included, counts
as a failed operation, and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from aliascert import _engine, aliasing, cli  # noqa: E402
from aliascert.frontend import parse_program  # noqa: E402
from tracing import Tracer  # noqa: E402

# Seconds one operation may take.  A failed operation is scored at this
# limit plus the time it ran, so it ranks behind every operation that
# gave a verdict in time and still reads as a measurement.
OP_LIMIT_S = 10.0

CERTIFY_WORKLOADS = ("certify_scale", "certify_backtrack")
SWEEP_WORKLOADS = ("sweep_clean", "sweep_fault")
WORKLOADS = CERTIFY_WORKLOADS + SWEEP_WORKLOADS

# Fresh interpreters timed for setup_s: one between operations every
# PROBE_EVERY_S, so the probes spread over the run; at least SETUP_PROBES.
PROBE_EVERY_S = 2.0
SETUP_PROBES = 9

# Host-speed calibration.  On a shared host the same work can run at
# speeds about 2x apart for seconds to minutes at a time, so raw seconds
# of two runs of the same code differ by up to half.  A fixed
# pure-Python loop that touches no aliascert code is timed after every
# operation and around every set-up probe.  Each time the end-to-end
# metrics use is scaled by REF_S over the median loop time around it:
# seconds on a host where the loop takes REF_S.  Raw seconds stay in
# the record.
REF_ITERATIONS = 25_000
REF_S = 0.004

# Units of every metric, as BENCHMARK.json declares them.  Times per
# layer are seconds per operation; counts are per pass over the inputs.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


# --------------------------------------------------------------------------
# inputs and operations


def make_cases(workload: str, seed: int) -> list[gen.Case]:
    corpus = ROOT / "corpus"
    if workload == "certify_scale":
        return gen.certify_scale(seed)
    if workload == "certify_backtrack":
        return gen.certify_backtrack(seed, corpus)
    if workload == "sweep_clean":
        return gen.sweep_clean(seed, corpus)
    return gen.sweep_fault(seed, corpus)


def reference_loop() -> float:
    """Seconds for a fixed amount of plain interpreter work."""
    table: dict[int, int] = {}
    t0 = perf_counter()
    for i in range(REF_ITERATIONS):
        table[i & 255] = table.get(i & 255, 0) + (i ^ 7)
    return perf_counter() - t0


class WrongAnswer(Exception):
    """An operation finished with an answer other than the known one."""


def certify_op(case: gen.Case, path: str) -> None:
    """``aliascert certify FILE`` in-process, checked against the answer."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["certify", path])
    text = out.getvalue()
    verdict = text.rstrip().rsplit("\n", 1)[-1]
    if verdict != f"verdict: {case.verdict}":
        raise WrongAnswer(f"{case.name}: {verdict!r}, expected {case.verdict}")
    if case.verdict == gen.SAFE:
        if code != 0 or "\ntrace oracle: ok\n" not in text or "): ok\n" not in text:
            raise WrongAnswer(f"{case.name}: SAFE without a clean oracle and re-check")
    elif code != 1 or f" at 0x{case.fail_addr:08x}" not in text.split("\nfailure: ", 1)[-1]:
        raise WrongAnswer(f"{case.name}: UNSAFE not at 0x{case.fail_addr:08x}")


def sweep_op(case: gen.Case, program) -> None:
    """``diff_runs`` at the fixed seed count, checked against the answer."""
    rep = aliasing.diff_runs(program, seeds=gen.SWEEP_SEEDS)
    if rep.clean.output != case.output or rep.clean.steps != case.clean_steps:
        raise WrongAnswer(f"{case.name}: clean run printed {rep.clean.output[:16]!r}... "
                          f"in {rep.clean.steps} steps")
    if len(rep.divergences) != case.divergences:
        raise WrongAnswer(f"{case.name}: {len(rep.divergences)} divergences, "
                          f"expected {case.divergences}")
    if case.fault_pc is not None:
        where = f"pc=0x{case.fault_pc:08x}"
        if not all(where in d.reason for d in rep.divergences):
            raise WrongAnswer(f"{case.name}: a divergence is not the fault at {where}")


class Bench:
    """Holds a workload's inputs and runs them one operation at a time."""

    def __init__(self, workload: str, seed: int, inputs: Path):
        self.certify = workload in CERTIFY_WORKLOADS
        self.cases = make_cases(workload, seed)
        self.by_name = {case.name: case for case in self.cases}
        inputs.mkdir(parents=True, exist_ok=True)
        paths = [case.write(inputs) for case in self.cases]
        if self.certify:
            self.args = [str(p) for p in paths]
        else:
            self.args = [parse_program(p.read_text(encoding="utf-8")) for p in paths]
        self.ops: list[dict] = []
        self.passes = 0
        self.refs = [reference_loop()]  # reference loop times, one after each op
        self.wrong: list[str] = []
        self.failures: Counter = Counter()

    def run_pass(self, tracer: Tracer | None = None, between=None) -> None:
        """One operation per input, calling ``between()`` after each."""
        op = certify_op if self.certify else sweep_op
        for case, arg in zip(self.cases, self.args):
            before = Counter(tracer.counts) if tracer else None
            if tracer:
                tracer.op = len(self.ops)
            t0 = perf_counter()
            error = None
            try:
                op(case, arg)
            except WrongAnswer as e:
                self.wrong.append(str(e))
                error = "WrongAnswer"
            except Exception as e:  # any failure of the code under test
                error = type(e).__name__
            elapsed = perf_counter() - t0
            if error is None and elapsed > OP_LIMIT_S:
                error = "TimeLimitExceeded"
            if error is not None:
                self.failures[error] += 1
            self.ops.append({
                "case": case.name, "seconds": elapsed, "error": error,
                "pass": self.passes, "traced": tracer is not None, "ref": len(self.refs),
                "counts": dict(tracer.counts - before) if tracer else None,
            })
            self.refs.append(reference_loop())
            if between is not None:
                between()
        self.passes += 1

    def calibrated(self, op: dict) -> float:
        """The operation's seconds at reference host speed: scaled by the
        median of the two loop times before it and the two after."""
        j = op["ref"]
        return op["seconds"] * REF_S / statistics.median(self.refs[max(0, j - 2):j + 2])


# --------------------------------------------------------------------------
# metrics


def end_to_end(bench: Bench, ops: list[dict], seconds) -> dict[str, float]:
    """The metrics over ``ops``, with ``seconds(op)`` the time to use."""
    secs = [seconds(op) for op in ops]
    times = [s + (OP_LIMIT_S if op["error"] else 0.0) for s, op in zip(secs, ops)]
    busy = sum(secs)
    decided = [bench.by_name[op["case"]] for op in ops if not op["error"]]
    if bench.certify:
        instructions = sum(case.instructions for case in decided)
    else:
        instructions = sum(case.clean_steps + gen.SWEEP_SEEDS * case.alias_steps
                           for case in decided)
    # a sweep gives one verdict per seed compared
    verdicts = len(decided) * (1 if bench.certify else gen.SWEEP_SEEDS)
    return {
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8],
        "instr_per_s": instructions / busy,
        "verdicts_per_s": verdicts / busy,
        "decided_frac": len(decided) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(bench: Bench, tracer: Tracer, traced_ops: list[dict], passes: int,
              overhead: float) -> dict[str, float]:
    c = tracer.counts
    n = len(traced_ops)

    def per_op(key):
        return c[key] / n

    def per_pass(key):
        return c[key] / passes

    def rate(num, den, scale=1.0):
        return scale * c[num] / c[den] if c[den] else 0.0

    return {
        "frontend.parse_s": per_op("frontend.parse.s"),
        "frontend.lines_per_s": rate("frontend.lines", "frontend.parse.s"),
        "certifier.certify_s": per_op("certifier.certify.s"),
        "certifier.us_per_row": rate("certifier.ok_s", "certifier.rows", 1e6),
        "certifier.rows": per_pass("certifier.rows"),
        "certifier.routines": per_pass("certifier.routines"),
        "certifier.internal_errors": per_pass("certifier.certify.errors"),
        "certifier.rows_per_reading": rows_per_reading(traced_ops),
        "certifier.time_exponent": time_exponent(traced_ops),
        "disasm.readings": per_pass("disasm.readings"),
        "disasm.readings_growth": readings_growth(bench, traced_ops),
        "smallstep.calls": per_pass("smallstep.n"),
        "smallstep.mismatches": per_pass("smallstep.PatternMismatch"),
        "smallstep.self_s": per_op("smallstep.s"),
        "annotation.joins": per_pass("annotation.join.n"),
        "annotation.join_s": per_op("annotation.join.s"),
        "traces.check_s": per_op("traces.check.s"),
        "traces.us_per_row": rate("traces.check.s", "traces.rows", 1e6),
        "safety.check_s": per_op("safety.check.s"),
        "cli.self_s": per_op("cli.self_s"),
        "machine.build_image_s": per_op("machine.build_image.s"),
        "engine.clean_s": per_op("engine.clean.s"),
        "engine.clean_steps": per_pass("engine.clean_steps"),
        "engine.alias_s": per_op("engine.alias.s"),
        "engine.alias_steps": per_pass("engine.alias_steps"),
        "engine.alias_steps_per_s": rate("engine.alias_steps", "engine.alias.s"),
        "aliasing.compare_s": per_op("aliasing.compare.s"),
        "aliasing.divergences": per_pass("aliasing.divergences"),
        "aliasing.sweep_self_s": per_op("aliasing.sweep.self_s"),
        "trace.overhead_frac": overhead,
    }


def _per_case(ops: list[dict], key: str) -> dict[str, float]:
    """Mean of one count per input, over the traced operations that decided it."""
    sums, hits = defaultdict(float), Counter()
    for op in ops:
        if not op["error"]:
            sums[op["case"]] += op["counts"].get(key, 0)
            hits[op["case"]] += 1
    return {name: sums[name] / hits[name] for name in hits}


def rows_per_reading(ops: list[dict]) -> float:
    """Rows kept in theories over readings tried, on the operations that
    gave a verdict: 1 when no reading is ever rejected."""
    rows = sum(op["counts"].get("certifier.rows", 0) for op in ops if not op["error"])
    tried = sum(op["counts"].get("disasm.readings", 0) for op in ops if not op["error"])
    return rows / tried if tried else 0.0


def time_exponent(ops: list[dict]) -> float:
    """Least-squares slope of log(certify seconds) over log(rows), across
    the inputs that certified: 1 when time is linear in program size, 2
    when quadratic.  0 when fewer than two sizes certified."""
    secs, rows = _per_case(ops, "certifier.ok_s"), _per_case(ops, "certifier.rows")
    pts = [(math.log(rows[k]), math.log(secs[k])) for k in secs if rows.get(k) and secs[k] > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def readings_growth(bench: Bench, ops: list[dict]) -> float:
    """Geometric mean of readings(k + 1) / readings(k) over the k-li
    family: 2 when each extra ``li`` doubles the search.  0 elsewhere."""
    readings = _per_case(ops, "disasm.readings")
    by_variant = defaultdict(dict)
    for case in bench.cases:
        if case.k is not None and case.name in readings:
            by_variant[case.verdict][case.k] = readings[case.name]
    logs = [math.log(r[k + 1] / r[k]) for r in by_variant.values()
            for k in r if k + 1 in r and r[k] > 0]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def counts_repeat(ops: list[dict]) -> bool:
    """Whether every traced pass made exactly the same counts per input."""
    seen: dict[str, dict] = {}
    for op in ops:
        exact = {k: v for k, v in op["counts"].items()
                 if not (k.endswith(".s") or k.endswith("_s"))}
        if seen.setdefault(op["case"], exact) != exact:
            return False
    return True


# --------------------------------------------------------------------------
# provenance and the run


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "backend": _engine.BACKEND,
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit_of(ROOT),
    }


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing the CLI, as every CLI
    call pays it.  No timeout: waiting with one polls, which rounds the
    time up to the next poll, up to 50 ms."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import aliascert.cli"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    bench = Bench(workload, seed, out / "inputs" / tag)
    tracer = Tracer() if trace else None
    probes = []  # (raw seconds, calibrated seconds)
    start = due = perf_counter()

    def probe_when_due():
        nonlocal due
        if perf_counter() >= due:
            before = reference_loop()
            t = setup_probe()
            after = reference_loop()
            probes.append((t, t * REF_S / ((before + after) / 2)))
            due = perf_counter() + PROBE_EVERY_S

    while True:
        bench.run_pass(between=None if trace else probe_when_due)
        if tracer:
            tracer.install()
            try:
                bench.run_pass(tracer)
            finally:
                tracer.uninstall()
        if perf_counter() - start >= seconds:
            break
    while not trace and len(probes) < SETUP_PROBES:
        due = 0.0
        probe_when_due()
    ops = bench.ops
    busy = defaultdict(float)  # (traced, pass) -> calibrated seconds
    for op in ops:
        busy[op["traced"], op["pass"]] += bench.calibrated(op)
    untraced_busy = [v for (t, _), v in busy.items() if not t]
    traced_busy = [v for (t, _), v in busy.items() if t]
    raw = None
    if trace:
        traced = [op for op in ops if op["traced"]]
        overhead = statistics.median(traced_busy) / statistics.median(untraced_busy) - 1
        metrics = per_layer(bench, tracer, traced, len(traced_busy), overhead)
        tracer.write_spans(out / f"{tag}.spans.jsonl")
        repeat = counts_repeat(traced)
    else:
        metrics = {"setup_s": statistics.median(c for _, c in probes),
                   **end_to_end(bench, ops, bench.calibrated)}
        raw = {"setup_s": statistics.median(t for t, _ in probes),
               **end_to_end(bench, ops, lambda op: op["seconds"])}
        repeat = None
    failed = sum(1 for op in ops if op["error"])
    result = {
        "correct": not bench.wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    record = {
        **result,
        "provenance": provenance(workload, seed),
        "raw_metrics": raw,
        "host_speed": REF_S / statistics.median(bench.refs),
        "passes": {"untraced": untraced_busy, "traced": traced_busy},
        "setup_probes": probes,
        "failures_by_type": dict(bench.failures),
        "wrong_answers": bench.wrong[:20],
        "counts_repeat_across_passes": repeat,
        "cases": case_table(bench, ops),
    }
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def case_table(bench: Bench, ops: list[dict]) -> list[dict]:
    rows = []
    for case in bench.cases:
        mine = [op for op in ops if op["case"] == case.name]
        traced = [op for op in mine if op["traced"] and not op["error"]]
        row = {
            "case": case.name, "instructions": case.instructions, "k": case.k,
            "verdict": case.verdict, "runs": len(mine),
            "median_s": statistics.median(op["seconds"] for op in mine),
            "errors": dict(Counter(op["error"] for op in mine if op["error"])),
        }
        if traced:
            counts = traced[0]["counts"]
            rows_ = counts.get("certifier.rows", 0)
            row["rows"] = rows_
            row["readings"] = counts.get("disasm.readings", 0)
            row["us_per_row"] = 1e6 * counts.get("certifier.ok_s", 0) / rows_ if rows_ else None
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
                     | {"raw_metrics": record["raw_metrics"],
                        "host_speed": record["host_speed"],
                        "provenance": record["provenance"],
                        "failures_by_type": record["failures_by_type"],
                        "wrong_answers": record["wrong_answers"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
