#!/usr/bin/env python3
"""The aliascert benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload certify_scale --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a traced run.  The
workload runs in a fresh single-threaded child process, so its peak
memory is its own.
Full records, spans and the generated inputs go to ``.perfbench/``.
Exits non-zero, printing no result, when the run fails or an answer is
wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

DEADLINE_S = 175


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one thread for any native library a later core may import
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "aliascert" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} holds no aliascert source tree (src/aliascert, corpus)",
              file=sys.stderr)
        return 2
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
    print("provenance: " + json.dumps(record["provenance"]))
    print("failures by type: " + json.dumps(record["failures_by_type"]))
    print(f"host speed: {record['host_speed']:.4f} of the reference")
    if record["raw_metrics"]:
        print("uncalibrated metrics: " + json.dumps(record["raw_metrics"]))
    for wrong in record["wrong_answers"]:
        print(f"wrong answer: {wrong}", file=sys.stderr)
    if not record["correct"]:
        return 1
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
