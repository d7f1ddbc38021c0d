"""The address-relevance slice of `_engine.build_image` changes no outcome.

`build_image` decodes a ``li``, ``addiu``, ``addu`` or ``nand`` whose
destination can never reach a cell key into a word-only form, which
tags its result 0 without calling a salt (the `_engine` docstring states
the rule).  Each program here runs on its sliced image and on the same
image with every word-only form mapped back to its tagged mnemonic; the
two must give equal sweeps (the `DiffReport` and how it settled its
seeds), equal `run_alias_image` outcomes at seeds 1 to 5, given the
symbolic run and without it, and equal clean outcomes, at 32-, 8- and
3-bit tags.  The programs are the corpus, ``genprogs`` seeds 0 to 59 at
sizes 12, 32 and 64 with one ``mutate_source`` mutant of each, the loops
and the chain of `test_symbolic_digests`, and one named program for each
way relevance flows to a base.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from aliascert import _engine, parse_program
from aliascert.aliasing import diff_runs

from genprogs import generate_source, mutate_source
from test_symbolic_digests import _chain_source, _loop_source, _loops

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FUEL = 10_000
SEEDS = range(1, 6)
SWEPT = 8  # seeds per sweep
TAGGED = {v: k for k, v in _engine._WORD_ONLY.items()}

# `li t0 buf` and `addiu t6 t3 0` calculate one address two ways, and
# each reaches a base by one route only: t0 to t2, t6 to t5.  A seed tells
# the two apart only while both stay tagged, so the load through t5 of the
# store through t2 faults on every seed.  `li t7 85` is only stored.
_ROUTED = """#@ entry main
main:
  li t3 buf
  lw v0 0(t3)
  li t0 buf
  addiu t6 t3 0
{route}
  li t7 85
  sw t7 0(t2)
  lw v1 0(t5)
  jr ra
buf:
  .bytes 1 2 3 4
"""
# `li t0 buf` calculates the address `li t3 buf` does, and reaches a base
# only as a stored word loaded back, through `load`: the store through
# it and the load through t3 meet in one cell on every seed while it stays
# tagged.  Then `li t7 85`, also only stored, stays tagged too.
_RELOADED = """#@ entry main
main:
  move s0 ra
  li t3 buf
  lw v0 0(t3)
  li t0 buf
  addiu sp sp -8
  sw t0 0(sp)
{load}
  li t7 85
  sw t7 0(t2)
  lw v1 0(t3)
  addiu sp sp 8
  jr s0
buf:
  .bytes 1 2 3 4
"""
ROUTED = {
    "move": _ROUTED.format(route="  move t2 t0\n  move t5 t6"),
    "addu": _ROUTED.format(route="  addu t2 t0 zero\n  addu t5 t6 zero"),
    "nand": _ROUTED.format(route="  nand t1 t0 t0\n  nand t2 t1 t1\n"
                                 "  nand t4 t6 t6\n  nand t5 t4 t4"),
}
NAMED = {
    **ROUTED,
    "loaded_base": _RELOADED.format(load="  lw t2 0(sp)"),
    "ra_base": _RELOADED.format(load="  lw ra 0(sp)\n  move t2 ra"),
}


def _unsliced(image: _engine.Image) -> _engine.Image:
    """``image`` with every word-only form tagged again."""
    return replace(image, code={pc: (pc, TAGGED.get(op, op), a, b, c)
                                for pc, (_, op, a, b, c) in image.code.items()})


def _sweep(program, fuel: int, unsliced: bool):
    """``diff_runs`` on ``program``, with how it settled its seeds, or the
    message of its ``ValueError`` when the clean run fails."""
    with pytest.MonkeyPatch.context() as mp:
        if unsliced:
            build = _engine.build_image
            mp.setattr(_engine, "build_image", lambda p: _unsliced(build(p)))
        try:
            report = diff_runs(program, seeds=SWEPT, fuel=fuel)
        except ValueError as e:
            return str(e)
    return report, report.checked_words, report.seeded_runs, report.resumed_at


def _outcomes(image: _engine.Image, fuel: int):
    symbolic = _engine.run_symbolic_image(image, fuel)
    return (_engine.clean_outcome(image, fuel, symbolic), _engine.run_clean_image(image, fuel),
            [(_engine.run_alias_image(image, fuel, seed, symbolic),
              _engine.run_alias_image(image, fuel, seed)) for seed in SEEDS])


def _cases():
    yield from ((p.name, p.read_text(), FUEL) for p in sorted(CORPUS.glob("*.s")))
    generated = [generate_source(seed, size) for seed in range(60) for size in (12, 32, 64)]
    yield from ((f"genprogs/{n}", source, FUEL) for n, source in enumerate(generated))
    yield from ((f"mutant/{seed}", mutate_source(source, seed), FUEL)
                for seed, source in enumerate(generated))
    yield from ((f"loop/{n}", source, fuel) for n, (source, fuel, _) in enumerate(_loops()))
    yield from ((f"named/{name}", source, FUEL) for name, source in NAMED.items())


@pytest.mark.parametrize("bits", (32, 8, 3))
def test_the_sliced_image_runs_as_the_unsliced_one(monkeypatch, bits):
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    word_only = seeded = 0
    for name, source, fuel in _cases():
        program = parse_program(source)
        image = _engine.build_image(program)
        word_only += sum(op in TAGGED for _, op, _, _, _ in image.code.values())
        sweep = _sweep(program, fuel, False)
        assert sweep == _sweep(program, fuel, True), name
        seeded += sweep[2] if type(sweep) is tuple else 0
        assert _outcomes(image, fuel) == _outcomes(_unsliced(image), fuel), name
    # the slice untags something, and narrow tags make seeds run the loop
    assert word_only > 100
    assert seeded or bits == 32


def _op_at(image: _engine.Image, text: str, source: str) -> str:
    """The decoded mnemonic of the first line of ``source`` that is ``text``."""
    lines = [line.strip() for line in source.splitlines()
             if line.startswith("  ") and not line.strip().startswith(".")]
    return image.code[_engine.BASE_ADDRESS + 4 * lines.index(text)][1]


@pytest.mark.parametrize("name", NAMED)
def test_a_calculation_that_reaches_a_base_by_any_route_stays_tagged(name):
    source = NAMED[name]
    program = parse_program(source)
    image = _engine.build_image(program)
    assert _op_at(image, "li t0 buf", source) == "li"
    assert _op_at(image, "li t7 85", source) == ("li.w" if name in ROUTED else "li")
    report = diff_runs(program, seeds=SWEPT)
    assert report.clean.ok and report.clean.regs[3] == 85  # v1
    if name in ROUTED:
        assert _op_at(image, "addiu t6 t3 0", source) == "addiu"
        assert [d.reason.split()[0] for d in report.divergences] == ["AliasFault"] * SWEPT
    else:  # the store and the load meet in one cell: one run settles every seed
        assert report.ok and report.checked_words == 0


def test_the_counter_register_is_word_only_and_the_pointer_tagged():
    counter = _engine.build_image(parse_program(_loop_source("counter", False)))
    assert _op_at(counter, "addiu t1 t1 -1", _loop_source("counter", False)) == "addiu.w"
    source = _loop_source("string", False)
    assert _op_at(_engine.build_image(parse_program(source)), "addiu a0 a0 1", source) == "addiu"
    chain = _chain_source()
    image = _engine.build_image(parse_program(chain))
    assert _op_at(image, "addiu t0 t0 4", chain) == "addiu"
    assert _op_at(image, "addiu t1 t1 -1", chain) == "addiu.w"


def test_an_endless_counter_interns_no_more_keys_as_it_runs():
    image = _engine.build_image(parse_program("#@ entry main\nmain:\n  addiu t0 t0 1\n"
                                              "  j main\n"))
    short, long = (_engine.run_symbolic_image(image, fuel) for fuel in (10**3, 10**5))
    assert long.outcome.steps == 10**5 and long.outcome.error == "FuelExhausted"
    assert short.interned == long.interned
