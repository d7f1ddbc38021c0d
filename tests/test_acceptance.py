"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import dataclasses
import time

from aliascert import certify_program
from aliascert.aliasing import AliasConfig, diff_runs, run_aliased
from aliascert.annot import calc, rep, uncalc
from aliascert.disasm import StackInstr, location_candidates
from aliascert.isa import V0
from aliascert.machine import run as run_clean
from aliascert.traces import FrameDown, FrameUp, Read, TraceViolation, Write, check_program, fold_event

from conftest import load
from genprogs import generate_program
from golden_tables import GOLDEN_TABLES
from test_disasm import LOCATION_MATRIX
from test_golden_tables import expected_table, render_table

RANDOM_PROGRAMS = 500
SEEDS_PER_PROGRAM = 100

_safe_theories: list = []  # shared between criteria 6 and 7


def _line(n: int, ok: bool, text: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_1_golden_annotation_reproduction():
    t0 = time.monotonic()
    program = load("hello.s")
    cells = 0
    for table in GOLDEN_TABLES:
        report = certify_program(dataclasses.replace(program, entry=table["entry_label"]))
        assert report.safe, report.failures
        cert = report.theory.routines[report.theory.entry_key]
        actual = render_table(program, cert, table["columns"])
        expected = expected_table(table)
        actual = [r for r in actual
                  if not (r[0].endswith(":") and r[0] not in {e[0] for e in expected})]
        assert len(actual) == len(expected), table["entry_label"]
        for (am, ad, acells), (em, ed, ecells) in zip(actual, expected):
            assert am == em and (ed is None or ad == ed), (am, em, ad, ed)
            for col in table["columns"]:
                assert acells[col] == ecells[col], (table["entry_label"], am, col,
                                                    acells[col], ecells[col])
                cells += 1
    dt = time.monotonic() - t0
    _line(1, dt < 1.0,
          f"four worked-example tables reproduced cell-exactly "
          f"({cells} cells, {dt:.2f}s)")


def test_criterion_2_frame_restore_discrimination():
    good = certify_program(load("foo_good.s"))
    bad_prog = load("foo_bad.s")
    bad = certify_program(bad_prog)
    ok = (good.verdict == "SAFE"
          and bad.verdict == "UNSAFE"
          and bad.failures[0].kind == "NoDisassembly"
          and bad_prog.source_lines[bad.failures[0].addr] == "addiu sp sp 32")
    _line(2, ok, "copy-restore certifies; arithmetic restore refused at the addiu")


def test_criterion_3_string_array_discrimination():
    left = certify_program(load("table2_left.s"))
    middle = certify_program(load("table2_middle.s"))
    right = certify_program(load("table2_right.s"))
    left_newh = False
    if left.verdict == "SAFE":
        cert = left.theory.routines[left.theory.entry_key]
        left_newh = any(r.chosen.op == "newh" for r in cert.rows.values())
    ok = (right.verdict == "SAFE" and middle.verdict == "UNSAFE" and left_newh)
    _line(3, ok, "stepped string certifies, mixed arithmetic fails, "
                 "fixed offset certifies as an array")


def test_criterion_4_event_algebra():
    checked = 0

    def ok_case(t, e, expect):
        nonlocal checked
        out = fold_event(t, e)
        assert out == expect, (t, e, out)
        checked += 1

    def bad_case(t, e, eq):
        nonlocal checked
        out = fold_event(t, e)
        assert isinstance(out, TraceViolation) and out.equation == eq, (t, e, out)
        checked += 1

    def boundary_writes(make, n, w, eq):
        # brute-force oracle: enumerate every k in [0, n]; a word write
        # also keeps to a word boundary
        nonlocal checked
        for k in range(n + 1):
            out = fold_event(make(n), Write(k, w))
            if n - w >= k >= 0 and (w == 1 or k % 4 == 0):
                assert k in out.offs, (n, k, w)
            else:
                assert isinstance(out, TraceViolation) and out.equation == eq
            checked += 1

    # eq 1: array writes
    ok_case(uncalc(8, offs=[0]), Write(4, 4), uncalc(8, offs=[0, 4]))
    boundary_writes(uncalc, 8, 4, "eq1")
    bad_case(uncalc(8), Write(5, 4), "eq1")
    # eq 2: array reads need a prior write
    ok_case(uncalc(8, offs=[4]), Read(4, 4), uncalc(8, offs=[4]))
    ok_case(uncalc(8, offs=[4]), Read(4, 1), uncalc(8, offs=[4]))
    bad_case(uncalc(8, offs=[0]), Read(4, 4), "eq2")
    bad_case(uncalc(8, offs=[2]), Read(2, 4), "eq2")  # a word read off a word boundary
    # eq 3: string steps match the increment and keep the pattern
    ok_case(rep(1, offs=[0]), FrameDown(1), rep(1, offs=[0]))
    ok_case(rep(4, offs=[0]), FrameDown(4), rep(4, offs=[0]))
    bad_case(rep(1), FrameDown(2), "eq3")
    # eq 4: string writes inside the increment
    ok_case(rep(4), Write(0, 4), rep(4, offs=[0]))
    boundary_writes(rep, 4, 1, "eq4")
    bad_case(rep(1), Write(0, 4), "eq4")
    bad_case(rep(6), Write(0, 4), "eq4")  # a word write along a step of 6
    # eq 5: string reads need the written mark
    ok_case(rep(1, offs=[0]), Read(0, 1), rep(1, offs=[0]))
    ok_case(rep(4, offs=[0, 3]), Read(3, 1), rep(4, offs=[0, 3]))
    bad_case(rep(4), Read(0, 4), "eq5")
    bad_case(rep(6, offs=[0]), Read(0, 4), "eq5")
    # eq 6: pushes are positive and reset the written set
    ok_case(calc(48, offs=[0, 4, 8]), FrameUp(32), calc(32, 48))
    ok_case(calc(0), FrameUp(4), calc(4, 0))
    bad_case(calc(0), FrameUp(0), "eq6")
    bad_case(calc(0), FrameUp(6), "eq6")  # a frame of whole words only
    # eq 7: pops match the top of the tower
    ok_case(calc(32, 0, offs=[16, 24, 28]), FrameDown(32), calc(0))
    ok_case(calc(4, 8, 12), FrameDown(4), calc(8, 12))
    bad_case(calc(32, 0), FrameDown(16), "eq7")
    bad_case(calc(32), FrameDown(32), "eq7")  # no enclosing frame
    # eq 8: stack writes inside the current frame
    ok_case(calc(32, 0), Write(28, 4), calc(32, 0, offs=[28]))
    boundary_writes(lambda n: calc(n, 0), 12, 4, "eq8")
    bad_case(calc(0), Write(0, 4), "eq8")
    # eq 9: stack reads need the written mark
    ok_case(calc(32, 0, offs=[16]), Read(16, 4), calc(32, 0, offs=[16]))
    ok_case(calc(8, 0, offs=[0, 4]), Read(4, 4), calc(8, 0, offs=[0, 4]))
    bad_case(calc(32, 0, offs=[16]), Read(24, 4), "eq9")
    bad_case(calc(32, 0, offs=[17]), Read(17, 4), "eq9")
    _line(4, checked >= 27, f"equations (1)-(9): {checked} cases incl. "
                            "brute-forced boundaries")


def test_criterion_5_location_matrix():
    checked = 0
    for op, table in LOCATION_MATRIX.items():
        for (rd_star, rs_star, same), expected in table.items():
            got = location_candidates(op, rd_star, rs_star, same)
            assert got == expected, (op, rd_star, rs_star, same, got)
            checked += 1
    _line(5, checked >= 30,
          f"candidate pruning equals the hand matrix ({checked} configurations)")


def test_criterion_6_differential_soundness():
    t0 = time.monotonic()
    _safe_theories.clear()
    total = 0
    # corpus programs that certify must never diverge
    for name in ("hello.s", "foo_good.s", "table2_left.s", "table2_right.s"):
        program = load(name)
        report = certify_program(program)
        assert report.safe, name
        _safe_theories.append(report.theory)
        rep = diff_runs(program, seeds=SEEDS_PER_PROGRAM)
        assert rep.ok, (name, rep.divergences[:3])
        total += 1
    # randomized certifiable programs
    for seed in range(RANDOM_PROGRAMS):
        program = generate_program(seed)
        assert len(program.instructions) <= 12
        report = certify_program(program)
        assert report.safe, (seed, report.failures)
        _safe_theories.append(report.theory)
        rep = diff_runs(program, seeds=SEEDS_PER_PROGRAM)
        assert rep.ok, (seed, rep.divergences[:3])
        total += 1
    # the two alias-bug drivers diverge on every seed
    for name in ("foo_bad_caller.s", "table2_middle.s"):
        rep = diff_runs(load(name), seeds=100)
        assert len(rep.divergences) == 100, name
    dt = time.monotonic() - t0
    _line(6, dt < 60.0,
          f"{total} certified programs x {SEEDS_PER_PROGRAM} seeds: zero "
          f"divergences; both drivers diverge 100/100 ({dt:.1f}s)")


def test_criterion_7_oracle_agreement():
    if not _safe_theories:
        test_criterion_6_differential_soundness()
    accepted = 0
    for theory in _safe_theories:
        violations = check_program(theory)
        assert violations == [], violations[:3]
        accepted += 1

    # hand-built theories with bad accesses must be flagged
    flagged = 0
    report = certify_program(load("foo_good.s"))
    theory = report.theory
    cert = theory.routines[theory.entry_key]
    put_addr = next(a for a, r in cert.rows.items() if str(r.chosen) == "put zero 8")
    get_addr = next(a for a, r in cert.rows.items() if str(r.chosen) == "get v0 4")
    keep = (cert.rows[put_addr].chosen, cert.rows[get_addr].chosen)

    cert.rows[put_addr].chosen = StackInstr("put", rd=0, n=32)  # out of bounds
    violations = check_program(theory)
    assert any(v.equation == "eq8" for v in violations)
    flagged += 1
    cert.rows[put_addr].chosen = keep[0]

    cert.rows[get_addr].chosen = StackInstr("get", rd=V0, n=12)  # never written
    violations = check_program(theory)
    assert any(v.equation == "eq9" for v in violations)
    flagged += 1
    cert.rows[get_addr].chosen = keep[1]

    _line(7, True, f"oracle accepts {accepted}/{accepted} safe theories and "
                   f"flags {flagged}/2 corrupted ones")


def test_criterion_8_hello_world_end_to_end():
    program = load("hello.s")
    clean = run_clean(program)
    ok = clean.ok and clean.output == b"Hi" and clean.exit_reason == "halt-device"
    for seed in range(1, 11):
        aliased = run_aliased(program, AliasConfig(seed=seed))
        ok = ok and aliased.ok and aliased.output == clean.output \
            and aliased.exit_reason == "halt-device"
    _line(8, ok, "prints the string bytes identically on both machines for "
                 "10 seeds and exits via the halt device")
