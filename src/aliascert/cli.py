"""Command-line driver: certify, run, and differential sweeps."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .aliasing import AliasConfig, DiffReport, diff_runs, run_aliased
from .certifier import (
    DEFAULT_POLICY,
    BYTE_POLICIES,
    SAFE,
    CertReport,
    Failure,
    certify_program,
    check_safety,
)
from .annot import Annotation, serialize_annotation
from .frontend import AsmSyntaxError, DuplicateLabel, parse_program
from .isa import Program, reg_name
from .machine import (
    DEFAULT_FUEL,
    RunOutcome,
    run as run_clean,
)
from .traces import check_program, check_stack_pointer

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3

REPORT_SCHEMA = "aliascert-report/1"


class _UsageError(Exception):
    """Ends a command with EXIT_USAGE; the message goes to stderr."""


def _load(args) -> Program:
    """The program of ``args.file``, entered at ``--entry`` when given."""
    path = args.file
    try:
        with open(path, "r", encoding="utf-8") as fh:
            program = parse_program(fh.read())
    except OSError as e:
        raise _UsageError(f"error: {e}") from e
    except UnicodeDecodeError as e:
        raise _UsageError(f"error: {path}: {e}") from e
    except (AsmSyntaxError, DuplicateLabel) as e:
        raise _UsageError(f"parse error: {e}") from e
    if args.entry is not None:
        program.entry = args.entry
    return program


class _RenderCache:
    """Renders the annotations, types and readings of one report.  Row
    i's post is usually row i+1's pre, annotations share most of their
    type objects, and rows share their readings, so each distinct object
    is rendered once.  Entries are keyed by identity and hold their
    object, so no id is reused while the cache lives."""

    def __init__(self):
        self._texts: dict[int, tuple[object, str]] = {}

    def __call__(self, obj: object) -> str | None:
        if obj is None:
            return None
        hit = self._texts.get(id(obj))
        if hit is None:
            text = serialize_annotation(obj, self) if isinstance(obj, Annotation) else str(obj)
            hit = self._texts[id(obj)] = (obj, text)
        return hit[1]


def build_report(path: str, entry: str | None, policy: str, report: CertReport) -> dict:
    """Machine-readable report; rows mirror the annotated-listing layout."""
    theory = report.theory
    out = {
        "schema": REPORT_SCHEMA,
        "file": path,
        "entry": entry,
        "byte_policy": policy,
        "verdict": report.verdict,
        "failures": [
            {"address": f.addr, "rule": f.rule, "kind": f.kind, "detail": f.detail}
            for f in report.failures
        ],
        "routines": [],
        "calls": [],
        "oracle": None,
        "safety": None,
    }
    if theory is None:
        return out
    program = theory.program
    label_at, source_lines = program.label_at, program.source_lines
    render = _RenderCache()
    # each call by site, callee label and callee routine: one site may
    # call a routine under two entries
    calls = {}
    for cert in sorted(theory.routines.values(), key=lambda c: (c.entry_addr, c.key)):
        rows = []
        for addr in sorted(cert.rows):
            row = cert.rows[addr]
            if row.callee is not None:
                callee = theory.routines[row.callee]
                calls[addr, callee.label, callee.key] = callee
            pre = render(row.pre)
            rows.append({
                "address": addr,
                "label": label_at(addr),
                "machine": source_lines.get(addr, ""),
                "stack": render(row.chosen),
                "pre": pre,
                "post": pre if row.post is row.pre else render(row.post),
            })
        out["routines"].append({
            "key": cert.key,
            "label": cert.label,
            "entry_address": cert.entry_addr,
            "entry": render(cert.entry),
            "exit": render(cert.exit_ann),
            "rows": rows,
        })
    for (site, label, _), callee in sorted(calls.items()):
        out["calls"].append({
            "site": site,
            "callee": label,
            "entry": render(callee.entry),
            "exit": render(callee.exit_ann),
        })
    if report.safe:
        violations = check_program(theory) + check_stack_pointer(theory)
        out["oracle"] = {"ok": not violations, "violations": [str(v) for v in violations]}
        safety = check_safety(theory, policy)
        out["safety"] = {"ok": not safety, "violations": [str(v) for v in safety]}
    return out


def _print_report(rep: dict) -> None:
    write = sys.stdout.write  # one write per row; print makes two
    for routine in rep["routines"]:
        print(f"\n{routine['label']} @ 0x{routine['entry_address']:08x}")
        print(f"  entry: {routine['entry']}")
        for row in routine["rows"]:
            label = f"{row['label']}:" if row["label"] else ""
            write(f"  {label:<12}0x{row['address']:08x}  {row['machine']:<20} "
                  f"{row['stack']:<22} | {row['post']}\n")
        if routine["exit"] is not None:
            print(f"  exit:  {routine['exit']}")
    for f in rep["failures"]:
        print(f"failure: {Failure(f['address'], f['rule'], f['kind'], f['detail'])}")
    if rep["oracle"] is not None:
        status = "ok" if rep["oracle"]["ok"] else "VIOLATIONS"
        print(f"\ntrace oracle: {status}")
        for v in rep["oracle"]["violations"]:
            print(f"  {v}")
    if rep["safety"] is not None:
        status = "ok" if rep["safety"]["ok"] else "VIOLATIONS"
        print(f"safety re-check ({rep['byte_policy']}): {status}")
        for v in rep["safety"]["violations"]:
            print(f"  {v}")
    print(f"\nverdict: {rep['verdict']}")


def cmd_certify(args) -> int:
    program = _load(args)
    try:
        program.entry_address()
    except ValueError as e:
        raise _UsageError(f"error: {e}") from None
    # nothing keeps the certificate once it is rendered, so its theory is
    # freed before the report is printed
    rep = build_report(args.file, program.entry, args.byte_policy,
                       certify_program(program, policy=args.byte_policy))
    _print_report(rep)
    if args.json:
        text = json.dumps(rep, indent=2)  # one write; json.dump makes many small ones
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise _UsageError(f"error: {e}") from e
    clean = (rep["verdict"] == SAFE
             and rep["oracle"] is not None and rep["oracle"]["ok"]
             and rep["safety"] is not None and rep["safety"]["ok"])
    return EXIT_OK if clean else EXIT_FAIL


def _print_outcome(out: RunOutcome) -> None:
    print(f"output: {out.output!r}")
    print(f"halted: {out.ok}" + (f" ({out.exit_reason})" if out.exit_reason else ""))
    print(f"steps:  {out.steps}")
    if out.error:
        where = f" at pc=0x{out.error_pc:08x}" if out.error_pc is not None else ""
        print(f"error:  {out.error}{where}")
    for f in out.faults:  # only the aliasing machine records a fault
        print(f"fault:  {f}")
    regs = ", ".join(f"{reg_name(r)}=0x{out.regs[r]:08x}"
                     for r in range(32) if out.regs[r])
    print(f"regs:   {regs or '(all zero)'}")


def cmd_run(args) -> int:
    # a seed picks the aliasing machine; diff sweeps seeds 1..N
    if args.seed is not None and args.seed < 1:
        raise _UsageError(f"error: seed must be at least 1, got {args.seed}")
    program = _load(args)
    try:
        if args.seed is None:
            out = run_clean(program, fuel=args.fuel)
        else:
            out = run_aliased(program, AliasConfig(seed=args.seed), fuel=args.fuel)
    except ValueError as e:
        raise _UsageError(f"error: {e}") from None
    _print_outcome(out)
    return EXIT_OK if out.ok else EXIT_FAIL


def cmd_diff(args) -> int:
    program = _load(args)
    try:
        rep = diff_runs(program, seeds=args.seeds, fuel=args.fuel)
    except ValueError as e:
        raise _UsageError(f"error: {e}") from None
    print(f"clean output: {rep.clean.output!r}")
    print(f"divergences: {len(rep.divergences)}/{rep.seeds}")
    for d in rep.divergences[:10]:
        print(f"  seed {d.seed}: {d.reason}")
    if len(rep.divergences) > 10:
        print(f"  ... and {len(rep.divergences) - 10} more")
    if rep.resumed_at is not None:
        print(f"clean run: {rep.clean.steps} steps, resumed at step {rep.resumed_at}")
    print(f"seeds settled by {_settlement(rep)}")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _settlement(rep: DiffReport) -> str:
    if not rep.checked_words:
        return "one run"
    words = f"a check over {rep.checked_words} word{'s' * (rep.checked_words > 1)}"
    if not rep.seeded_runs:
        return words
    return f"{words} and {rep.seeded_runs} seeded run{'s' * (rep.seeded_runs > 1)}"


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aliascert",
        description="Certify machine code safe against hardware aliasing, "
                    "and simulate it on clean and aliasing machines.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="assembly source file")
        sp.add_argument("--entry", default=None, help="entry label (overrides pragma)")

    def running(sp):  # the commands that run the program on a machine
        common(sp)
        sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    c = sub.add_parser("certify", help="infer an annotated theory and a verdict")
    common(c)
    c.add_argument("--byte-policy", choices=BYTE_POLICIES, default=DEFAULT_POLICY)
    c.add_argument("--json", default=None, help="write the report as JSON to PATH")
    c.set_defaults(func=cmd_certify)

    r = sub.add_parser("run", help="run on the clean or aliasing machine")
    running(r)
    r.add_argument("--seed", type=int,
                   help="run the aliasing machine at this seed, at least 1 "
                        "(default: the clean machine)")
    r.set_defaults(func=cmd_run)

    d = sub.add_parser("diff", help="sweep seeds and compare aliased runs to clean")
    running(d)
    d.add_argument("--seeds", type=int, default=100)
    d.set_defaults(func=cmd_diff)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` and reused after it."""
    return make_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left in its buffer goes to
        # devnull, so that exit prints nothing, and the exit code is that
        # of any other output that cannot be written
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout with no file descriptor
            pass
        finally:
            os.close(devnull)
        return EXIT_USAGE
    except _UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a fault of aliascert itself: one line, its own code
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
