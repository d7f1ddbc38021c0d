#!/usr/bin/env python3
"""Summarise the run records under ``.perfbench/`` into one baseline file.

    python3 perfbench/baseline.py perfbench/baseline/BENCH_<commit>.json

For each workload: the median, quartiles and spread (quartile distance
over median) of every end-to-end metric across the untraced runs, with
the metric's bound from ``BENCHMARK.json``, and the uncalibrated
medians with each run's host speed; the median of every
per-layer metric across the traced runs; and, from the traced run with
the lowest seed, a row per input size or k.  Prints one line per
end-to-end metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def _by_size(cases: list[dict]) -> list[dict]:
    """Rows, readings, microseconds per row and failures, grouped by
    program size (certify_scale) or by k and verdict (certify_backtrack).
    Empty for the sweeps, which certify nothing."""
    if not any(c.get("rows") for c in cases):
        return []
    groups = defaultdict(list)
    for c in cases:
        groups[(c["k"] is None, c["k"] or c["instructions"], c["verdict"])].append(c)
    out = []
    for (_, size, verdict), rows in sorted(groups.items()):
        traced = [c for c in rows if "rows" in c]
        per_row = [c["us_per_row"] for c in traced if c["us_per_row"]]
        out.append({"k" if rows[0]["k"] is not None else "instructions": size,
                    "verdict": verdict, "programs": len(rows),
                    "rows": statistics.fmean(c["rows"] for c in traced) if traced else None,
                    "readings": statistics.fmean(c["readings"] for c in traced) if traced else None,
                    "us_per_row": statistics.fmean(per_row) if per_row else None,
                    "errors": dict(sum((Counter(c["errors"]) for c in rows), Counter()))})
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = defaultdict(list)
    for path in sorted((ROOT / ".perfbench").glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        records[(rec["provenance"]["workload"], "-trace1" in path.stem)].append(rec)
    summary = {"provenance": None, "workloads": {}}
    for (workload, traced), recs in sorted(records.items()):
        recs.sort(key=lambda r: r["provenance"]["seed"])
        prov = {k: v for k, v in recs[0]["provenance"].items() if k not in ("workload", "seed")}
        summary["provenance"] = prov
        entry = summary["workloads"].setdefault(workload, {})
        metrics = defaultdict(list)
        for rec in recs:
            for name, m in rec["metrics"].items():
                metrics[name].append(m["value"])
        if traced:
            entry["per_layer"] = {k: statistics.median(v) for k, v in metrics.items()}
            entry["per_size"] = _by_size(recs[0]["cases"])
            entry["counts_repeat_across_passes"] = all(
                r["counts_repeat_across_passes"] for r in recs)
        else:
            entry["seeds"] = [r["provenance"]["seed"] for r in recs]
            entry["attempted"] = sum(r["attempted"] for r in recs)
            entry["failed"] = sum(r["failed"] for r in recs)
            entry["failures_by_type"] = dict(sum((Counter(r["failures_by_type"]) for r in recs),
                                                 Counter()))
            entry["host_speed"] = [r["host_speed"] for r in recs]
            entry["raw_median"] = {k: statistics.median(r["raw_metrics"][k] for r in recs)
                                   for k in recs[0]["raw_metrics"]}
            entry["end_to_end"] = {}
            for name, values in metrics.items():
                s = _stats(values) | {"bound": bounds[name]}
                entry["end_to_end"][name] = s
                print(f"{workload:18s} {name:16s} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.3f} (bound {s['bound']}, {s['runs']} runs)")
    Path(argv[0]).parent.mkdir(parents=True, exist_ok=True)
    Path(argv[0]).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
