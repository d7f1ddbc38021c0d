"""Stability of the symbolic run and of every run a sweep reads from it.

``symbolic_digests.json`` holds, per family of programs, the sha256 of
each program's `_engine.run_symbolic_image` (its outcome, ``closure`` in
its own order, ``groups``, ``mixed`` and ``start``) with the clean run
`_engine.clean_outcome` takes from it, and apart from them (under
``.../tag<bits>``) the sha256 of `_engine.run_alias_image` at seeds 1
to 5, given the symbolic run and without it, at 32-, 8- and 3-bit tags
(narrow tags make distinct calculations collide, so the seeded loop
runs).  The families are the corpus, ``genprogs`` seeds 0 to 59 at sizes
12, 32 and 64, one ``mutate_source`` mutant of each, and counter and
string loops of a few hundred iterations, each clean and ending in an
arithmetic frame restore, and a pointer chain of as many steps whose
last word is reloaded through another calculation, each at two fuels.  Any change to an interned id,
the order ids are handed out, a group, a tag or an outcome shows up as a
changed digest.

Regenerate the fixture (only when a change to the symbolic run is
intended) with ``PYTHONPATH=src python tests/test_symbolic_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from aliascert import _engine, parse_program

from genprogs import generate_source, mutate_source

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "symbolic_digests.json"

SEEDS = range(1, 6)
TAG_BITS = (32, 8, 3)
FUEL = 10_000
ITERATIONS = 300


def _loop_source(shape: str, faulty: bool) -> str:
    """A counter kept in a stack slot, or a text printed byte by byte
    through a pointer kept in one; the faulty variant then calls ``foo``,
    which restores the stack pointer by arithmetic, and reloads ``ra``."""
    lines = ["#@ entry main", "#@ assume main: sp*=c^[0], ra=u^0", "main:",
             "  move gp sp", "  addiu sp sp -32"]
    if faulty:
        lines.append("  sw ra 28(sp)")
    if shape == "counter":
        lines += [f"  addiu t1 zero {ITERATIONS}", "  sw t1 8(sp)", "loop:", "  lw t1 8(sp)",
                  "  addiu t1 t1 -1", "  sw t1 8(sp)", "  bnez t1 loop", "  li v1 0xb0000000"]
        lines += [f"  addiu a0 zero {c}\n  sb a0 0(v1)" for c in b"ok"]
    else:
        lines += ["  li v1 0xb0000000", "  addiu a1 zero 62", "  sb a1 0(v1)", "  li a0 text",
                  "  sw a0 12(sp)", "  j test", "body:", "  sb a1 0(v1)", "  lw a0 12(sp)",
                  "  addiu a0 a0 1", "  sw a0 12(sp)", "test:", "  lw a0 12(sp)",
                  "  lb a1 0(a0)", "  bnez a1 body"]
    if faulty:
        lines += ["  jal foo", "  lw ra 28(sp)"]
    lines += ["  move sp gp", "  jr ra"]
    if faulty:
        lines += ["foo:", "  addiu sp sp -32", "  sw zero 0(sp)", "  addiu sp sp 32", "  jr ra"]
    if shape == "string":
        text = bytes(0x61 + i % 26 for i in range(ITERATIONS))
        lines += ["text:", f'  .bytes "{text.decode()}\\0"']
    return "\n".join(lines) + "\n"


def _chain_source() -> str:
    """A pointer stepped word by word, storing at each step, then a reload
    of the last word through the pointer stepped back: a different
    calculation of that word, whose inputs reach down the whole chain."""
    return "\n".join([
        "#@ entry main", "main:", f"  addiu t0 sp -{4 * ITERATIONS}",
        f"  addiu t1 zero {ITERATIONS}", "loop:", "  sw t1 0(t0)", "  addiu t0 t0 4",
        "  addiu t1 t1 -1", "  bnez t1 loop", "  lw v0 -4(t0)", "  jr ra"]) + "\n"


def _loops():
    """The loop programs with each fuel, and whether they fault."""
    sources = [(_loop_source(shape, faulty), faulty) for shape in ("counter", "string")
               for faulty in (False, True)] + [(_chain_source(), True)]
    return [(source, fuel, faulty) for source, faulty in sources for fuel in (FUEL, 700)]


def _families():
    yield "corpus", [(p.read_text(), FUEL) for p in sorted(CORPUS.glob("*.s"))]
    generated = [generate_source(seed, size) for seed in range(60) for size in (12, 32, 64)]
    yield "genprogs", [(source, FUEL) for source in generated]
    yield "mutants", [(mutate_source(source, seed), FUEL)
                      for seed, source in enumerate(generated)]
    yield "loops", [(source, fuel) for source, fuel, _ in _loops()]


def _symbolic_record(sym: _engine.SymbolicRun, clean) -> bytes:
    start = sym.start
    if start is not None:
        start = start._replace(memory=sorted(start.memory.items()))
    return repr((sym.outcome, list(sym.closure.items()), sym.groups, sorted(sym.mixed),
                 start, clean)).encode() + b"\n"


def compute_digests() -> dict[str, str]:
    out = {}
    saved = _engine.TAG_MASK
    try:
        for family, cases in _families():
            h = hashlib.sha256()
            runs = []
            for source, fuel in cases:
                image = _engine.build_image(parse_program(source))
                sym = _engine.run_symbolic_image(image, fuel)
                h.update(_symbolic_record(sym, _engine.clean_outcome(image, fuel, sym)))
                runs.append((image, fuel, sym))
            out[f"{family}/symbolic"] = h.hexdigest()
            for bits in TAG_BITS:
                _engine.TAG_MASK = (1 << bits) - 1
                h = hashlib.sha256()
                for image, fuel, sym in runs:
                    for seed in SEEDS:
                        h.update(repr((_engine.run_alias_image(image, fuel, seed, sym),
                                       _engine.run_alias_image(image, fuel, seed))).encode())
                out[f"{family}/tag{bits}"] = h.hexdigest()
    finally:
        _engine.TAG_MASK = saved
    return out


def test_symbolic_runs_match_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


def test_loops_reach_the_paths_the_digests_pin():
    # the clean loops settle every seed from the symbolic run, the faulty
    # ones resume the clean run before the faulting reload, and the short
    # fuel ends every loop out of fuel
    for source, fuel, faulty in _loops():
        sym = _engine.run_symbolic_image(_engine.build_image(parse_program(source)), fuel)
        if fuel < FUEL:
            assert sym.outcome.error == "FuelExhausted"
        elif faulty:
            assert sym.outcome.error == "AliasFault" and sym.start is not None and sym.groups
        else:
            assert sym.outcome.ok and sym.start is None and not sym.mixed


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
