"""The interpreter's loader, which builds a word at its first touch,
against the eager reference.

`_engine._Chains` reserves for the loader's chains the ids that the
eager `test_preload_digests.preload` hands out under the interning salt,
and works out their keys and each load of a word no store has touched
by arithmetic.  The salt it hands the symbolic run decodes a loader
calculation's id before it builds a key.  Its `build` fills a word's
cells and lane writers under any run's salt: the reserved ids under the
symbolic run's, a seed's tags under the seeded one.  These tests hold
it and that salt to `preload` on the blob families of
``test_preload_digests``, and the symbolic run built on it to one that
serves every word from a `preload` made up front, on programs that store
into an initialized blob and reload it through both readings, walk
several blobs, or step a pointer past one blob into the next.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import accumulate, product

import pytest

from aliascert import _engine, diff_runs, parse_program
from aliascert._engine import M64, T_ADDIU, T_EA, T_INIT, T_LI, tag
from aliascert.machine import M32

from genprogs import generate_source
from test_preload_digests import BASE, CORPUS, TAG_BITS, _families, preload
from test_symbolic_digests import _loops

FIRST = 32  # the first id after the registers' initial values, 1 to 31
FUEL = 10_000


def _interning(ids: dict[int, int], first: int):
    """Plain interning, the reference for the loader's reserved ids:
    each new key takes the next id from ``first`` on."""
    def intern(seed: int, domain: int, a: int, b: int = 0) -> int:
        return ids.setdefault(((b & M64) << 64 | a) << 8 | domain, first + len(ids))
    return intern


def _several():
    """Sets of three initialized blobs of several steps and lengths, an
    empty one among them, each on the word past the one before."""
    data = bytes(range(0xA0, 0xA0 + 24))
    for steps in product((1, 2, 4), (1, 3, 4), (2, 4, 5)):
        for sizes in ((2, 3, 5), (4, 0, 8), (5, 9, 1), (8, 4, 12)):
            addrs = accumulate((max(n, 1) + 3 & ~3 for n in sizes[:-1]), initial=BASE)
            yield tuple((a, data[:n], step, True) for a, n, step in zip(addrs, sizes, steps))


def _blob_sets():
    for family, cases in [*_families(), ("several", list(_several()))]:
        for blobs in cases:
            yield family, tuple(b for b in blobs if b[3])


def _eager(blobs):
    ids: dict[int, int] = {}
    mem, written = preload(blobs, 0, _interning(ids, FIRST))
    return ids, mem, written


def _salt(blobs):
    """The interning salt `run_symbolic_image` runs with, over the chains
    of ``blobs``, with its table of the registers' initial values."""
    ids = {i << 8 | T_INIT: i for i in range(1, FIRST)}
    chains = _engine._Chains(blobs, FIRST)
    return chains.salt(ids), ids, chains


def _call(salt, key: int) -> int:
    """``salt`` on the calculation whose interned key is ``key``."""
    return salt(0, key & 0xFF, key >> 8 & M64, key >> 72)


def _starts(blobs) -> list[int]:
    """The first id of each blob's chains, then the first id past them:
    the li, the array reading, then each step of the chain and its span."""
    sizes = [1 + n + -(-n // step) + max(0, n - step)
             for _, data, step, _ in blobs for n in [len(data)]]
    return list(accumulate(sizes, initial=FIRST))


def test_each_reserved_id_and_key_is_the_eager_loaders():
    for family, blobs in _blob_sets():
        eager, mem, written = _eager(blobs)
        salt, ids, chains = _salt(blobs)
        assert chains.last == len(eager) + FIRST == _starts(blobs)[-1], (family, blobs)
        for key, i in eager.items():
            assert chains.key(i) == key, (family, blobs, i)
            assert _call(salt, key) == i, (family, blobs, i)
        # the loader under the run's salt leaves what it leaves under plain
        # interning, and puts no key in the table
        assert preload(blobs, 0, salt) == (mem, written), (family, blobs)
        assert len(ids) == FIRST - 1, (family, blobs)


def _around(eager: dict[int, int], blobs):
    """The calculations in and just outside the loader's chains of
    ``blobs``, as ``(domain, a, b)``: from each pointer, the last step's
    included, an effective address at every offset from -1 to just past
    the data and at the step, and an ``addiu`` by the step and by one less
    and one more; and the ``li`` of each address inside a blob."""
    starts = _starts(blobs)
    for key, p in eager.items():
        domain = key & 0xFF
        if domain == T_EA:
            continue
        word = (key >> 8) + (key >> 72 if domain == T_ADDIU else 0) & M32
        _, data, step, _ = blobs[bisect_right(starts, p) - 1]
        ptr = p << 32 | word
        yield from ((T_EA, ptr, b) for b in (*range(-1, len(data) + 2), step))
        yield from ((T_ADDIU, ptr, b) for b in (step - 1, step, step + 1))
    for addr, data, _, _ in blobs:
        yield from ((T_LI, addr + x, 0) for x in range(1, len(data)))


def test_each_near_miss_takes_a_fresh_id_in_creation_order():
    # a calculation the loader makes gets its reserved id; any other, an
    # addiu by another immediate, an effective address past its pointer's
    # span, anything from the last step's pointer, the li of an address
    # inside a blob, gets the next id after the reserved range
    for family, blobs in _blob_sets():
        eager, _, _ = _eager(blobs)
        salt, ids, chains = _salt(blobs)
        fresh: dict[int, int] = {}
        for domain, a, b in _around(eager, blobs):
            key = ((b & M64) << 64 | a) << 8 | domain
            want = eager.get(key) or fresh.setdefault(key, chains.last + len(fresh))
            assert salt(0, domain, a, b) == want, (family, blobs, domain, a, b)
        assert fresh and len(ids) == FIRST - 1 + len(fresh), (family, blobs)
        # the loader's calculations keep their ids among the fresh ones
        assert all(_call(salt, key) == i for key, i in eager.items()), (family, blobs)


def _built(chains, words, seed: int, salt) -> tuple[dict, dict]:
    """The cells and writers ``chains`` builds for each of ``words`` under
    ``salt`` and ``seed``, word by word in that order, each into its own
    empty memory."""
    mem, written = {}, {}
    for w in words:
        cells, built = {}, {}
        chains.build(w, cells, built, seed, salt)
        assert set(built) <= {w} and all(k & M32 == w for k in cells), w
        mem.update(cells)
        written.update(built)
    return mem, written


def test_each_word_built_is_the_eager_loaders():
    for family, blobs in _blob_sets():
        ids, mem, written = _eager(blobs)
        salt, table, chains = _salt(blobs)
        # words past each blob's data, and below them all, hold nothing
        outside = [addr + (len(data) + 3 & ~3) for addr, data, _, _ in blobs]
        outside += [min((b[0] for b in blobs), default=8) - 4]
        built = _built(chains, [*written, *(w for w in outside if w not in written)], 0, salt)
        assert built == (mem, written), (family, blobs)
        assert len(table) == FIRST - 1, (family, blobs)  # and nothing is interned


@pytest.mark.parametrize("bits", TAG_BITS)
def test_each_word_built_under_a_seed_is_the_eager_loaders(bits, monkeypatch):
    # narrow tags make loader calculations collide: their lanes then share
    # one cell, as the eager walk leaves them; words are built from the
    # last down, so each blob's pointers are salted from its far end first
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    shared = 0  # the blob sets and seeds where some cell is shared
    for family, blobs in _blob_sets():
        cells = len(_eager(blobs)[1])  # one per calculation and word
        for seed in range(6):
            mem, written = preload(blobs, seed, _engine.tag)
            chains = _engine._Chains(blobs, FIRST)
            assert _built(chains, sorted(written, reverse=True), seed, _engine.tag) == (
                mem, written), (family, blobs, seed)
            shared += len(mem) < cells
    assert (shared > 0) == (bits < 32)


def test_each_load_of_an_untouched_word_reads_the_eager_memory():
    for family, blobs in _blob_sets():
        ids, mem, written = _eager(blobs)
        chains = _engine._Chains(blobs, FIRST)
        for key, t in ids.items():
            if key & 0xFF != T_EA:
                continue
            ea = ((key >> 8) + (key >> 72)) & M32
            w, lane = ea & ~3, ea & 3
            cell = mem[t << 32 | w]
            # an lb reads the lane of its own address, an lw a whole aligned word
            for word, lanes, loaded in ([(False, (lane,), cell >> 8 * lane & 0xFF)]
                                        + [(True, _engine._WORD, cell)] * (lane == 0)):
                own = written[w] == t or _engine._own(written[w], t, w, lanes, ())
                assert chains.read(t, ea, word) == (loaded, own), (family, blobs, t, word)
        # another calculation's key misses every cell the loader filled
        for t in (FIRST - 1, chains.last):
            for w in written:
                assert t << 32 | w not in mem
                assert chains.read(t, w, True) == chains.read(t, w, False) == (None, False)


def _program(body: list[str], data: str, *more: str) -> str:
    """``body`` then ``jr ra``, with a blob ``buf`` of ``data`` and the
    blobs ``more``, each as ``label: .bytes ...``."""
    return "\n".join(["#@ entry main", "main:", *(f"  {line}" for line in body),
                      "  jr ra", "buf:", f"  .bytes {data}", *more]) + "\n"


def _walk(label: str, step: int, count: int, loads: list[str]) -> list[str]:
    """Step a pointer from ``li`` of ``label`` by ``step``, ``count``
    times, running ``loads`` through it at each step and adding what
    each loads into ``s0``."""
    body = [f"li t0 {label}", f"addiu t3 zero {count}", f"walk_{label}:"]
    for load in loads:
        body += [load.format("v0", "t0"), "addu s0 s0 v0"]
    return body + [f"addiu t0 t0 {step}", "addiu t3 t3 -1", f"bnez t3 walk_{label}"]


# Stores into an initialized blob, then reloads through the array reading
# (``li``) and the string reading (the ``li`` stepped by ``addiu``): words
# a store built beside words no store touched, loads that read only what
# their own calculation wrote and loads that read another's, the word stores
# of a step of 4 and the byte stores of a step below 4, and the last,
# partly filled word of a blob.
STORES = {
    "array": _program(["li t0 buf", "addiu t1 zero 85", "sw t1 4(t0)", "sb t1 9(t0)",
                       "lw v0 4(t0)", "lb v1 9(t0)", "lb a0 10(t0)", "addiu t2 t0 1",
                       "addiu t2 t2 1", "lb a1 0(t2)", "lw a2 8(t0)", "lw a3 12(t0)"],
                      '"abcdefghijklmn"'),
    "string": _program(["li t0 buf", "addiu t1 t0 1", "addiu t2 zero 90", "sb t2 0(t1)",
                        "lb v0 1(t0)", "lb v1 0(t1)", "addiu t1 t1 1", "lb a0 0(t1)",
                        "lw a1 4(t0)"], '"abcdefgh"'),
    "step4": _program(["li t0 buf", "addiu t1 t0 4", "lw v0 0(t1)", "addiu t3 zero 7",
                       "sw t3 0(t1)", "lw v1 4(t0)", "addiu t1 t1 4", "lw a0 0(t1)"],
                      '"abcdefghij" step=4'),
    "step2": _program(["li t0 buf", "addiu t1 t0 2", "addiu t1 t1 2", "lw v0 0(t1)",
                       "lb v1 1(t1)", "sb v1 0(t1)", "lw a0 4(t0)"], '"abcdefghi" step=2'),
    "partial": _program(["li t0 buf", "lw v0 4(t0)", "lb v1 5(t0)"], "1 2 3 4 5 6"),
    "last_byte": _program(["li t0 buf", "lw v0 4(t0)"], "1 2 3 4 5"),
    "alias": _program(["li t0 buf", "addu t1 t0 zero", "lw v0 0(t1)"], "1 2 3 4"),
    "loop": _program(["li t0 buf", "addiu t3 zero 6", "loop:", "lb t2 0(t0)",
                      "addiu t2 t2 1", "sb t2 0(t0)", "addiu t0 t0 1", "addiu t3 t3 -1",
                      "bnez t3 loop", "li t0 buf", "lw v0 0(t0)", "lw v1 4(t0)"],
                     '"abcdefgh"'),
    # three initialized blobs, a noinit one between the first two, each
    # walked along its string chain; then a store through the third's chain
    # and reloads of it and of the first through their array readings
    "three": _program([*_walk("buf", 1, 5, ["lb {} 0({})"]),
                       *_walk("b", 2, 3, ["lb {} 0({})", "lb {} 1({})"]),
                       *_walk("c", 4, 2, ["lw {} 0({})"]),
                       "li t1 c", "addiu t2 t1 4", "sw s0 0(t2)", "lw v1 4(t1)",
                       "lb a0 5(t1)", "li t1 buf", "lb a1 2(t1)"],
                      '"abcde"', "gap: .bytes 1 2 3 4 5 6 noinit",
                      'b: .bytes "fghijk" step=2', 'c: .bytes "lmnopqrs" step=4'),
    # a string read past its blob's data into the next blob (ROADMAP item
    # 18): the pointer stepped past the last step's is no chain pointer, and
    # its load misses the next blob's cell; then the same with a step of 4,
    # whose last step's pointer is the next blob's address
    "past_end": _program(["li t0 buf", "lb v0 0(t0)", "addiu t0 t0 1", "lb v1 0(t0)",
                          "addiu t0 t0 1", "addiu t0 t0 1", "addiu t0 t0 1", "li t1 t",
                          "lb a0 0(t1)", "lb a1 0(t0)"], '"ab"', 't: .bytes "cd\\0"'),
    "past_end4": _program(["li t0 buf", "lb v0 1(t0)", "addiu t0 t0 4", "li t1 t",
                           "lb a0 0(t1)", "lb a1 0(t0)"], '"ab" step=4', 't: .bytes "cd\\0"'),
}


def _sources():
    yield from ((f"stores/{name}", source) for name, source in STORES.items())
    yield from ((f"corpus/{p.name}", p.read_text()) for p in sorted(CORPUS.glob("*.s")))
    yield from ((f"genprogs/{seed}_{size}", generate_source(seed, size))
                for seed in range(60) for size in (12, 32, 64))
    yield from ((f"loops/{i}", source) for i, (source, _, _) in enumerate(_loops()))


class _Preloaded:
    """A stand-in for the symbolic run's `_engine._Chains`: each word is
    served from a `preload` of the initialized ``blobs`` made up front
    under ``salt``, and no load is read in closed form."""

    def __init__(self, blobs, salt):
        mem, self.written = preload([b for b in blobs if b[3]], 0, salt)
        self.cells: dict[int, dict[int, int]] = {}
        for k, v in mem.items():
            self.cells.setdefault(k & M32, {})[k] = v

    def read(self, t: int, ea: int, word: bool):
        return None, False

    def build(self, w: int, mem: dict, written: dict, seed: int, salt) -> None:
        if w in self.written:
            mem.update(self.cells[w])
            written[w] = self.written[w]


def _eager_symbolic(image, fuel: int):
    """The symbolic run with every word served from a `preload` of the
    initialized blobs made up front: its outcome, mixed words, clean
    start and interned ids, and its groups as the scan of every interned
    key found them.  The registers' initial values are interned before
    the loader's keys, as a run from the entry interns them, so that
    every id keeps its order."""
    ids: dict[int, int] = {}
    salt = _interning(ids, 1)
    for i in range(1, FIRST):
        salt(0, T_INIT, i)
    mixed: set[int] = set()
    snapshot: list = []
    outcome = _engine._run(image, fuel, 0, salt, mixed, None, snapshot,
                           _Preloaded(image.blobs, salt))
    words: dict[int, list[int]] = {w: [] for w in mixed}
    for k, i in ids.items():
        w = ((k >> 8) + (k >> 72)) & M32 & ~3
        if k & 0xFF == T_EA and w in words:
            words[w].append(i)
    groups = tuple(tuple(g) for g in words.values() if len(g) > 1)
    return outcome, mixed, snapshot[0] if snapshot else None, ids, groups


@pytest.mark.parametrize("name, source", list(_sources()))
def test_the_symbolic_run_is_the_one_that_preloads(name, source):
    image = _engine.build_image(parse_program(source))
    symbolic = _engine.run_symbolic_image(image, FUEL)
    outcome, mixed, start, ids, groups = _eager_symbolic(image, FUEL)
    assert symbolic.outcome == outcome
    assert symbolic.mixed == mixed and symbolic.start == start
    assert symbolic.groups == groups
    # the closure holds each calculation under the id it was interned with
    keys = {i: k for k, i in ids.items()}
    assert all(keys[i] == k for i, k in symbolic.closure.items())
    if any(init for *_, init in image.blobs):
        assert symbolic.interned < len(ids)


def test_the_store_programs_reach_each_path():
    runs = {name: _engine.run_symbolic_image(_engine.build_image(parse_program(source)), FUEL)
            for name, source in STORES.items()}
    faulty = {"alias", "past_end", "past_end4"}
    assert all(runs[name].outcome.error == "AliasFault" for name in faulty)
    assert {name for name, run in runs.items() if run.mixed} == {
        "alias", "array", "string", "step4", "step2", "partial", "loop", "three", *faulty}
    assert all(run.outcome.ok for name, run in runs.items() if name not in faulty)


@pytest.mark.parametrize("bits", [32, 8, 3])
@pytest.mark.parametrize("name", sorted(STORES))
def test_a_seed_agrees_with_and_without_the_symbolic_run(name, bits, monkeypatch):
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    image = _engine.build_image(parse_program(STORES[name]))
    symbolic = _engine.run_symbolic_image(image, FUEL)
    for seed in range(1, 6):
        assert (_engine.run_alias_image(image, FUEL, seed, symbolic)
                == _engine.run_alias_image(image, FUEL, seed))


def _untouched(size: int, init: bool, faulty: bool) -> str:
    """A program that never reads its blob of ``size`` bytes; the faulty
    one reloads ``ra`` through another calculation of the stack pointer."""
    detour = ["addiu t0 sp 0", "addiu sp t0 0"] if faulty else []
    body = ["move gp sp", "addiu sp sp -8", "sw ra 4(sp)", *detour, "lw ra 4(sp)", "move sp gp"]
    data = '"' + "ab" * (size // 2) + '"' + ("" if init else " noinit")
    return _program(body, data)


@pytest.mark.parametrize("faulty", [False, True])
@pytest.mark.parametrize("init", [True, False])
def test_data_a_run_never_touches_costs_nothing(init, faulty, monkeypatch):
    # the symbolic run interns, and a seeded run salts, the same whatever
    # the size of the blob neither reads
    tags: Counter = Counter()

    def counted(seed: int, domain: int, *vals: int) -> int:
        tags[domain] += 1
        return tag(seed, domain, *vals)

    runs, closures = [], []
    for size in (16, 100_000):
        program = parse_program(_untouched(size, init, faulty))
        image = _engine.build_image(program)
        symbolic = _engine.run_symbolic_image(image, FUEL)
        report = diff_runs(program, seeds=8)
        tags.clear()
        with monkeypatch.context() as m:
            m.setattr(_engine, "tag", counted)
            seeded = _engine.run_alias_image(image, FUEL, 3)
        assert seeded == symbolic.outcome
        runs.append((symbolic.interned, len(symbolic.closure), report, report.checked_words,
                     report.seeded_runs, report.resumed_at, dict(tags)))
        closures.append(symbolic.closure)
        assert bool(symbolic.mixed) == faulty and report.ok != faulty
    assert runs[0] == runs[1]
    if not (faulty and init):  # else the program's ids follow the loader's range
        assert closures[0] == closures[1]
