"""Byte-for-byte stability of the JSON report.

``report_digests.json`` holds the sha256 of every report below, rendered
with ``json.dumps(..., sort_keys=True)``: each corpus program under each
byte policy, a family of ``k`` string-or-array ``li`` introductions
(SAFE, and UNSAFE through an out-of-bounds read), the same family with its
reads made through ``move`` copies, placed after forward branches and
their joins, or moved into a callee (each under every byte policy),
``quickgen`` seeds, and straight-line and call-site programs of a few
hundred instructions.
Any change to a verdict, a theory, a failure, a rendering or the order
of rows shows up as a changed digest.

Regenerate the fixture (only when a change to the report is intended)
with ``PYTHONPATH=src python tests/test_report_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from aliascert import certify_program, parse_program
from aliascert.certifier import BYTE_POLICIES, DEFAULT_POLICY
from aliascert.cli import build_report

from genprogs import (
    call_sites,
    generate_source,
    kli_branch_source,
    kli_callee_source,
    kli_move_source,
    kli_source,
    straight_line,
)

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "report_digests.json"

KLI_KS = range(4, 11)
SEARCH_KS = (4, 7, 10)
SEARCH_FAMILIES = (kli_source, kli_move_source, kli_branch_source, kli_callee_source)
QUICKGEN_SEEDS = range(40)
SCALE_SIZES = (100, 400)


def _cases():
    for path in sorted(CORPUS.glob("*.s")):
        for policy in BYTE_POLICIES:
            yield f"corpus/{path.name}/{policy}", path.name, path.read_text(), policy
    for k in KLI_KS:
        for unsafe in (False, True):
            name = f"kli_{k:02d}_{'unsafe' if unsafe else 'safe'}.s"
            yield f"kli/{name}", name, kli_source(k, unsafe), DEFAULT_POLICY
    for make in SEARCH_FAMILIES:
        for k in SEARCH_KS:
            for unsafe in (False, True):
                name = f"{make.__name__[:-7]}_{k:02d}_{'unsafe' if unsafe else 'safe'}.s"
                for policy in BYTE_POLICIES:
                    if make is kli_source and policy == DEFAULT_POLICY:
                        continue  # the kli family above
                    yield (f"search/{name}/{policy}", name, make(k, unsafe), policy)
    for seed in QUICKGEN_SEEDS:
        name = f"quickgen_{seed:02d}.s"
        yield f"quickgen/{name}", name, generate_source(seed), DEFAULT_POLICY
    for size in SCALE_SIZES:
        for make in (straight_line, call_sites):
            name = f"{make.__name__}_{size}.s"
            yield f"scale/{name}", name, make(size), DEFAULT_POLICY


def report_digest(name: str, source: str, policy: str) -> str:
    program = parse_program(source)
    report = certify_program(program, policy=policy)
    rep = build_report(name, program.entry, policy, report)
    return hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()


def compute_digests() -> dict[str, str]:
    return {key: report_digest(name, source, policy)
            for key, name, source, policy in _cases()}


def test_reports_match_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


def test_kli_family_has_both_verdicts():
    for k in KLI_KS:
        safe = certify_program(parse_program(kli_source(k, False)))
        unsafe = certify_program(parse_program(kli_source(k, True)))
        assert (safe.verdict, unsafe.verdict) == ("SAFE", "UNSAFE"), k


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
