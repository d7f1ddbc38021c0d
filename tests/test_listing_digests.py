"""Byte-for-byte stability of the text listing of ``aliascert certify``.

``listing_digests.json`` holds, for every command below, the sha256 of
what ``cli.main(["certify", path, "--byte-policy", policy])`` writes to
stdout and the exit code it returns: each corpus program under each byte
policy, straight-line and call-site programs of a few hundred
instructions, and a family of ``k`` string-or-array ``li`` introductions
(SAFE, and UNSAFE through an out-of-bounds read).  The JSON report has
its own digests (``report_digests.json``); these pin the listing that
is printed from it, so any change to its layout, widths, order or
trailing lines shows up as a changed digest.

Regenerate the fixture (only when a change to the listing is intended)
with ``PYTHONPATH=src python tests/test_listing_digests.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from aliascert import cli
from aliascert.certifier import BYTE_POLICIES, DEFAULT_POLICY

from genprogs import call_sites, kli_source, straight_line

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "listing_digests.json"

SCALE_SIZES = (100, 400)
KLI_KS = (4, 7, 10)


def _cases():
    for path in sorted(CORPUS.glob("*.s")):
        for policy in BYTE_POLICIES:
            yield f"corpus/{path.name}/{policy}", path.read_text(), policy
    for size in SCALE_SIZES:
        for make in (straight_line, call_sites):
            yield f"scale/{make.__name__}_{size}.s", make(size), DEFAULT_POLICY
    for k in KLI_KS:
        for unsafe in (False, True):
            name = f"kli_{k:02d}_{'unsafe' if unsafe else 'safe'}.s"
            yield f"kli/{name}", kli_source(k, unsafe), DEFAULT_POLICY


def listing_digest(path: Path, policy: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["certify", str(path), "--byte-policy", policy])
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def compute_digests() -> dict[str, dict]:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.s"
        for key, source, policy in _cases():
            path.write_text(source)
            digests[key] = listing_digest(path, policy)
    return digests


def test_listings_match_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
