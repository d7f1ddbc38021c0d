"""Stability of the loader's memory, against an eager reference.

`preload` below is the reference for the interpreter's loader: it walks
every blob's chains up front, where `_engine._Chains` builds each word
at a run's first touch (``test_chains`` holds the two together).
``preload_digests.json`` holds, per family of data blobs and per salt,
the sha256 of the memory `preload` builds and of the words it marks
written, and apart from them (under ``.../writers``) the sha256 of the
writers it records for each word's lanes, over a fixed grid: seeds 0 to
5 under the seeded salt at 32-, 8- and 3-bit tags (narrow tags make
distinct calculations collide, so cells merge), and the salt that tags
every calculation 0.  The blob families are synthetic blobs of steps 1
to 9 and lengths 0 to 23 on a word boundary, where the parser places
every blob, and the blobs of the corpus and of ``genprogs`` seeds 0 to
59 at sizes 12, 32 and 64.  Any change to which cells the loader fills,
with what, which words count as written or which calculation wrote each
lane shows up as a changed digest.

Regenerate the fixture (only when a change to the preloaded memory is
intended) with ``PYTHONPATH=src python tests/test_preload_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from aliascert import _engine, parse_program
from aliascert._engine import T_ADDIU, T_EA, T_LI
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


def preload(blobs, seed: int, salt):
    """The memory of ``blobs`` and the writers of its words, stored
    eagerly along one chain of pointers per blob: the load-immediate base
    spans the whole blob (the array reading), then each step of the
    blob's stride spans the next ``step`` bytes (the string reading).
    Each offset in a span is one effective address; it stores the aligned
    word starting there when the span holds it, and its byte otherwise.
    A lane's writer is its one key, or the tuple of its keys in the order
    they first wrote it.  This is the reference for the interpreter's
    loader, `_engine._Chains`, which builds each word at a run's first
    touch of it.

    The keys are calculated in the chain's order, then stored span by
    span.  Every store puts the blob's own bytes at their own addresses,
    so a cell holds the lanes stored through its key whatever the order."""
    mem: dict[int, int] = {}
    written: dict[int, int | tuple] = {}
    get = mem.get
    for addr, data, step, _init in blobs:
        n = len(data)
        ptr = salt(seed, T_LI, addr) << 32 | addr
        if not n:
            continue
        base = [salt(seed, T_EA, ptr, j) for j in range(n)]  # offset x's key at x
        chain = []  # offset x's key at x - step
        for off in range(step, n + step, step):
            ptr = salt(seed, T_ADDIU, ptr, step) << 32 | (ptr + step) & M32
            for j in range(min(step, n - off)):
                chain.append(salt(seed, T_EA, ptr, j))
        lanes = [None] * (n + 3 & ~3)  # offset x's writers
        _store_span(mem, lanes, addr, data, base, 0, 0, n)
        if step < 4:  # a span shorter than a word stores one byte per offset
            for a, t, v in zip(range(addr + step, addr + n), chain, data[step:]):
                key = t << 32 | a & ~3
                mem[key] = get(key, 0) | v << 8 * (a & 3)
            lanes[step:n] = [
                e if e == t else (e, t) if type(e) is not tuple else e if t in e else e + (t,)
                for e, t in zip(lanes[step:n], chain)]
        else:
            for off in range(step, n, step):
                _store_span(mem, lanes, addr, data, chain, step, off, min(off + step, n))
        for i in range(0, n, 4):
            rec = tuple(lanes[i:i + 4])
            written[addr + i] = rec[0] if type(rec[0]) is int and rec.count(rec[0]) == 4 else rec
    return mem, written


def _store_span(mem: dict, lanes: list, addr: int, data: bytes, keys: list,
                first: int, off: int, end: int) -> None:
    """Store the span of offsets ``off`` to ``end`` of the blob at ``addr``,
    offset ``x`` through ``keys[x - first]``, adding each key to the
    writers ``lanes[x]`` of the offsets it covers."""
    get = mem.get
    for x in range(off, end):
        t = keys[x - first]
        a = addr + x
        lane = a & 3
        if lane == 0 and x + 4 <= end:
            mem[t << 32 | a] = int.from_bytes(data[x:x + 4], "little")
            new = t
        else:
            key = t << 32 | a - lane
            mem[key] = get(key, 0) | data[x] << 8 * lane
            # the key of the word this span stored over x first, if any
            u = keys[x - lane - first] if x - lane >= off and x - lane + 4 <= end else t
            new = t if u == t else (u, t)
        e = lanes[x]
        if e is None:
            lanes[x] = new
        elif e != new:
            seen = list(e) if type(e) is tuple else [e]
            seen += [v for v in (new if type(new) is tuple else (new,)) if v not in seen]
            lanes[x] = tuple(seen)


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
    mem, written = preload(blobs, seed, salt)
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
            mem, written = preload(blobs, 0, _zero_salt)
            clean = _engine._clean_memory(blobs)
            assert clean == mem, (family, blobs)
            assert sorted(clean) == sorted(written), (family, blobs)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
