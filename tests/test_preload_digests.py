"""Stability of the interpreter's preloaded memory.

``preload_digests.json`` holds, per family of data blobs and per salt,
the sha256 of the memory ``_engine._preload`` builds and of the words it
marks written, and apart from them (under ``.../writers``) the sha256 of
the writers it records for each word's lanes, over a fixed grid: seeds 0
to 5 under the seeded salt at 32-, 8- and 3-bit tags (narrow tags make
distinct calculations collide, so cells merge), and the salt that tags
every calculation 0.  The blob
families are synthetic blobs of steps 1 to 9 and lengths 0 to 23 on a
word boundary, where the parser places every blob, and the blobs of the
corpus and of ``genprogs`` seeds 0 to 59 at sizes 12, 32 and 64.  Any change to
which cells the loader fills, with what, which words count as written
or which calculation wrote each lane shows up as a changed digest.

Regenerate the fixture (only when a change to the preloaded memory is
intended) with ``PYTHONPATH=src python tests/test_preload_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from aliascert import _engine, parse_program
from aliascert.machine import M32

from genprogs import generate_source

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "preload_digests.json"

SEEDS = range(6)
TAG_BITS = (32, 8, 3)
BASE = 0x10000000


def _zero_salt(seed: int, domain: int, *vals: int) -> int:
    return 0


def _program_blobs(source: str):
    p = parse_program(source)
    return tuple((p.labels[name], b.data, b.step, b.init) for name, b in p.blobs.items())


def _families():
    data = bytes(range(0xA0, 0xA0 + 24))
    yield "synthetic", [((BASE, data[:n], step, True),) for step in range(1, 10) for n in range(24)]
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.s"))]
    sources += [generate_source(seed, size) for seed in range(60) for size in (12, 32, 64)]
    yield "programs", sorted({blobs for blobs in map(_program_blobs, sources) if blobs})


def _digest(h, writers, blobs, seed: int, salt) -> None:
    mem, written = _engine._preload(blobs, seed, salt)
    # the digests record each cell as (tag, word address) -> (tag, word)
    cells = {(k >> 32, k & M32): (v >> 32, v & M32) for k, v in mem.items()}
    h.update(repr(sorted(cells.items())).encode() + b"\n")
    h.update(repr(sorted(written)).encode() + b"\n")
    writers.update(repr(sorted(written.items())).encode() + b"\n")


def compute_digests() -> dict[str, str]:
    out = {}
    saved = _engine.TAG_MASK
    try:
        for family, cases in _families():
            for bits in TAG_BITS:
                _engine.TAG_MASK = (1 << bits) - 1
                h, writers = hashlib.sha256(), hashlib.sha256()
                for blobs in cases:
                    for seed in SEEDS:
                        _digest(h, writers, blobs, seed, _engine.tag)
                out[f"{family}/tag{bits}"] = h.hexdigest()
                out[f"{family}/tag{bits}/writers"] = writers.hexdigest()
            h, writers = hashlib.sha256(), hashlib.sha256()
            for blobs in cases:
                _digest(h, writers, blobs, 0, _zero_salt)
            out[f"{family}/zero"] = h.hexdigest()
            out[f"{family}/zero/writers"] = writers.hexdigest()
    finally:
        _engine.TAG_MASK = saved
    return out


def test_preloaded_memory_matches_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


def test_clean_memory_is_the_preload_under_tag_0():
    # under tag 0 the loader's chains leave each byte at its address, the
    # memory the clean machine lays out without them
    for family, cases in _families():
        for blobs in cases:
            mem, written = _engine._preload(blobs, 0, _zero_salt)
            clean = _engine._clean_memory(blobs)
            assert clean == mem, (family, blobs)
            assert sorted(clean) == sorted(written), (family, blobs)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
