"""The symbolic run's closed-form loader against the eager one.

`_engine._Chains` reserves for the loader's chains the ids that
`_engine._preload` hands out under the interning salt, and works out
their keys, each word's cells and lane writers, and each load of a word
no store has touched, by arithmetic.  These tests hold it to `_preload`
on the blob families of ``test_preload_digests``, and the symbolic run
built on it to one that preloads every blob first, on programs that
store into an initialized blob and reload it through both readings.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import pytest

from aliascert import _engine, diff_runs, parse_program
from aliascert._engine import M64, T_ADDIU, T_EA, T_LI
from aliascert.machine import M32

from genprogs import generate_source
from test_preload_digests import CORPUS, _families
from test_symbolic_digests import _loops

FIRST = 32  # the first id after the registers' initial values, 1 to 31
FUEL = 10_000


def _interning(ids: dict[int, int], first: int):
    """The interning salt of `run_symbolic_image` before the loader's ids
    were reserved: each new key takes the next id from ``first`` on."""
    def intern(seed: int, domain: int, a: int, b: int = 0) -> int:
        return ids.setdefault(((b & M64) << 64 | a) << 8 | domain, first + len(ids))
    return intern


def _blob_sets():
    for family, cases in _families():
        for blobs in cases:
            yield family, tuple(b for b in blobs if b[3])


def _eager(blobs):
    ids: dict[int, int] = {}
    mem, written = _engine._preload(blobs, 0, _interning(ids, FIRST))
    return ids, mem, written


def test_each_reserved_id_and_key_is_the_eager_loaders():
    for family, blobs in _blob_sets():
        ids, _, _ = _eager(blobs)
        chains = _engine._Chains(blobs, FIRST)
        # the li, the array reading, then each step of the chain and its span
        sizes = [1 + n + -(-n // step) + max(0, n - step)
                 for _, data, step, _ in blobs for n in [len(data)]]
        assert chains.last - FIRST == len(ids) == sum(sizes), (family, blobs)
        bounds = list(accumulate(sizes, initial=FIRST))  # each blob's first id
        for key, i in ids.items():
            assert chains.key(i) == key, (family, blobs, i)
            assert chains.decode(key & 0xFF, key >> 8 & M64, key >> 72) == i, (family, blobs, i)
        # from every pointer, the calculations just inside and just outside the
        # chains decode exactly when the loader made them
        for key, p in ids.items():
            if key & 0xFF == T_EA:
                continue
            ptr = p << 32 | (key >> 8) + (key >> 72 if key & 0xFF == T_ADDIU else 0) & M32
            _, data, step, _ = blobs[bisect_right(bounds, p) - 1]
            for domain, b in ([(T_EA, j) for j in range(-1, len(data) + 2)]
                              + [(T_ADDIU, j) for j in (step - 1, step, step + 1)]):
                want = ids.get(((b & M64) << 64 | ptr) << 8 | domain)
                assert chains.decode(domain, ptr, b) == want, (family, blobs, p, domain, b)
        for addr, _, _, _ in blobs:
            assert chains.decode(T_LI, addr, 0) == ids[addr << 8 | T_LI]
            assert chains.decode(T_LI, addr + 4, 0) in (None, ids.get((addr + 4) << 8 | T_LI))


def test_each_word_built_is_the_eager_loaders():
    for family, blobs in _blob_sets():
        ids, mem, written = _eager(blobs)
        chains = _engine._Chains(blobs, FIRST)
        for w, writers in written.items():
            cells, built = {}, {}
            chains.build(w, cells, built)
            assert built == {w: writers}, (family, blobs, w)
            assert cells == {k: v for k, v in mem.items() if k & M32 == w}, (family, blobs, w)
        # words past each blob's data, and below them all, hold nothing
        outside = [addr + (len(data) + 3 & ~3) for addr, data, _, _ in blobs]
        for w in outside + [min((b[0] for b in blobs), default=8) - 4]:
            cells, built = {}, {}
            chains.build(w, cells, built)
            assert w in written or cells == built == {}, (family, blobs, w)


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


def _program(body: list[str], data: str) -> str:
    return "\n".join(["#@ entry main", "main:", *(f"  {line}" for line in body),
                      "  jr ra", "buf:", f"  .bytes {data}"]) + "\n"


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
}


def _sources():
    yield from ((f"stores/{name}", source) for name, source in STORES.items())
    yield from ((f"corpus/{p.name}", p.read_text()) for p in sorted(CORPUS.glob("*.s")))
    yield from ((f"genprogs/{seed}_{size}", generate_source(seed, size))
                for seed in range(60) for size in (12, 32, 64))
    yield from ((f"loops/{i}", source) for i, (source, _, _) in enumerate(_loops()))


def _eager_symbolic(image, fuel: int):
    """The symbolic run with every initialized blob preloaded first: its
    outcome, mixed words, clean start and interned ids, and its groups
    as the scan of every interned key found them."""
    ids: dict[int, int] = {}
    mixed: set[int] = set()
    snapshot: list = []
    outcome = _engine._run(image, fuel, 0, _interning(ids, 1), mixed, None, snapshot)
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
    assert runs["alias"].outcome.error == "AliasFault"
    assert {name for name, run in runs.items() if run.mixed} == {
        "alias", "array", "string", "step4", "step2", "partial", "loop"}
    assert all(run.outcome.ok for name, run in runs.items() if name != "alias")


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
def test_data_a_run_never_touches_costs_nothing(init, faulty):
    runs, closures = [], []
    for size in (16, 100_000):
        program = parse_program(_untouched(size, init, faulty))
        symbolic = _engine.run_symbolic_image(_engine.build_image(program), FUEL)
        report = diff_runs(program, seeds=8)
        runs.append((symbolic.interned, len(symbolic.closure), report, report.checked_words,
                     report.seeded_runs, report.resumed_at))
        closures.append(symbolic.closure)
        assert bool(symbolic.mixed) == faulty and report.ok != faulty
    assert runs[0] == runs[1]
    if not (faulty and init):  # else the program's ids follow the loader's range
        assert closures[0] == closures[1]
