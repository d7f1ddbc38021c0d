from __future__ import annotations

import pytest

from aliascert import _engine, aliasing
from aliascert._engine import T_ADDIU, T_EA, T_INIT, T_LI, tag
from aliascert.aliasing import (
    AliasConfig,
    DiffReport,
    compare_runs,
    diff_runs,
    run_aliased,
)
from aliascert.certifier import certify_program
from aliascert.frontend import parse_program
from aliascert._engine import build_image
from aliascert.machine import run, run_by_steps
from aliascert.machine import DEFAULT_FUEL, M32

from genprogs import generate_program, generate_source, mutate_source


# salted words as (lo, hi): the arithmetic word and its calculation tag,
# re-tagged the way the interpreter tags `addiu` and `li`
def _addiu(seed, word, imm):
    lo, hi = word
    return (lo + imm) & M32, tag(seed, T_ADDIU, hi << 32 | lo, imm)


def _li(seed, imm):
    return imm & M32, tag(seed, T_LI, imm & M32)


def test_adding_zero_changes_the_alias():
    seed = 99
    sp = (0x7FFF0000, tag(seed, T_INIT, 29))
    bumped = _addiu(seed, sp, 0)
    assert bumped[0] == sp[0]
    assert bumped[1] != sp[1]  # arithmetically equal, not identical


def test_same_calculation_same_alias_across_repeats():
    for seed in range(100):
        sp = (0x7FFF0000, 0x1234)
        one = _addiu(seed, sp, -32)
        two = _addiu(seed, sp, -32)
        assert one == two
        assert _li(seed, 0xB0000000) == _li(seed, 0xB0000000)


def test_distinct_calculations_disagree_across_seeds():
    # (sp - 32) + 32 is arithmetically sp but never the same alias
    collisions = 0
    for seed in range(100):
        sp = (0x7FFF0000, 0xBEEF)
        down = _addiu(seed, sp, -32)
        back = _addiu(seed, down, 32)
        assert back[0] == sp[0]
        collisions += back[1] == sp[1]
    assert collisions == 0


def test_arithmetic_restore_faults_at_reload(corpus_programs):
    out = run_aliased(corpus_programs["foo_bad_caller"], AliasConfig(seed=7))
    assert out.error == "AliasFault"
    (fault,) = out.faults
    assert corpus_programs["foo_bad_caller"].source_lines[fault.pc] == "lw ra 28(sp)"


def test_mixed_string_arithmetic_faults(corpus_programs):
    out = run_aliased(corpus_programs["table2_middle"], AliasConfig(seed=3))
    assert out.error == "AliasFault"


def test_certified_corpus_runs_identically(hello):
    clean = run(hello)
    for seed in range(1, 101):
        aliased = run_aliased(hello, AliasConfig(seed=seed))
        assert compare_runs(clean, aliased, seed) is None


def test_copy_transparency():
    # moves and load/store round-trips of stored words never fault
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n"
        "  move gp sp\n  addiu sp sp -16\n"
        "  move t0 ra\n  move t1 t0\n"
        "  sw t1 8(sp)\n  lw t2 8(sp)\n  sw t2 8(sp)\n  lw t3 8(sp)\n"
        "  move sp gp\n  jr ra\n")
    for seed in range(1, 51):
        out = run_aliased(p, AliasConfig(seed=seed))
        assert out.ok and not out.faults
        assert out.regs[11] == out.regs[8]  # t3 ends equal to t0


def test_lo_projection_matches_clean_run(corpus_programs):
    # a faultless aliased run of a certified program erases to the clean
    # run exactly; for other programs it need not (see the next test)
    programs = [corpus_programs[name]
                for name in ("foo_good", "table2_left", "table2_right", "hello")]
    programs += [generate_program(seed) for seed in range(40)]
    for p in programs:
        clean = run(p)
        for seed in (1, 2, 3, 7, 999):
            aliased = run_aliased(p, AliasConfig(seed=seed))
            assert not aliased.faults
            assert aliased.regs == clean.regs
            assert aliased.output == clean.output
            assert aliased.steps == clean.steps


# the second store goes through another calculation of sp, so on the
# aliasing machine it fills another cell and the reload through sp reads
# the first store
_TWO_CALCULATIONS = ("#@ entry main\nmain:\n  li t0 1\n  sw t0 0(sp)\n"
                     "  addiu t1 sp 0\n  li t0 2\n  sw t0 0(t1)\n  lw v0 0(sp)\n  jr ra\n")

# the byte store goes through another calculation of sp, so on the
# aliasing machine the reload through sp reads the word's first store in
# every lane, while the clean machine merges the byte into it
_LANE_OVERWRITE = ("#@ entry main\nmain:\n  li t0 0x01020304\n  sw t0 0(sp)\n"
                   "  addiu t1 sp 1\n  li t2 65\n  sb t2 0(t1)\n  lw v0 0(sp)\n  jr ra\n")

# the clean machine preloads `buf`, the aliasing machine does not, so the
# reload sees the three bytes the store leaves only on the clean machine
_NOINIT_AFTER_STORE = ("#@ entry main\nmain:\n  li t0 buf\n  li t1 65\n  sb t1 0(t0)\n"
                       "  lw v0 0(t0)\n  jr ra\nbuf:\n  .bytes 1 2 3 4 noinit\n")


def test_symbolic_run_without_fault_can_differ_from_the_clean_run():
    # no load misses, yet v0 differs, so a sweep cannot take the symbolic
    # run's words for the clean run when a word has two calculations
    p = parse_program(_TWO_CALCULATIONS)
    symbolic = _engine.run_symbolic_image(build_image(p), DEFAULT_FUEL).outcome
    assert symbolic.ok and not symbolic.faults and symbolic.regs[2] == 1
    assert run(p).regs[2] == 2
    rep = diff_runs(p, seeds=10)
    assert [d.reason for d in rep.divergences] == \
        ["register 2 ends 0x00000001 vs clean 0x00000002"] * 10


def _seeded_sweep(program, seeds: int) -> DiffReport:
    """The reference sweep: the seeded loop for every seed."""
    image = build_image(program)
    clean = _engine.run_clean_image(image, DEFAULT_FUEL)
    divergences = []
    for seed in range(1, seeds + 1):
        d = compare_runs(clean, _engine.run_alias_image(image, DEFAULT_FUEL, seed), seed)
        if d is not None:
            divergences.append(d)
    return DiffReport(seeds=seeds, clean=clean, divergences=divergences)


@pytest.fixture
def clean_runs(monkeypatch):
    """How each call of `_engine.run_clean_image` ran, in call order:
    "full" from step 0, or "resumed" from a symbolic run's state."""
    calls = []
    clean_loop = _engine.run_clean_image

    def counted(image, fuel, start=None):
        calls.append("full" if start is None else "resumed")
        return clean_loop(image, fuel, start)

    monkeypatch.setattr(_engine, "run_clean_image", counted)
    return calls


@pytest.mark.parametrize("bits", [8, 32])
def test_sweep_equals_the_seeded_sweep(bits, corpus_programs, clean_runs, monkeypatch):
    # 8-bit tags collide often, so the per-seed check must send some seeds
    # to the seeded loop and still take the symbolic run for others; the
    # tag width is the one point the seeded loop and the check both read
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    assert _engine.tag(5, T_LI, 7) < 1 << bits
    seeded = []
    loop = _engine._run

    def counted(image, fuel, seed, salt, *rest, **kwargs):
        if salt is _engine.tag:
            seeded.append(seed)
        return loop(image, fuel, seed, salt, *rest, **kwargs)

    monkeypatch.setattr(_engine, "_run", counted)
    programs = list(corpus_programs.values()) + [generate_program(s) for s in range(40)]
    programs = [p for p in programs if run(p).ok]
    fallbacks = without_clean_run = 0
    for p in programs:
        reference = _seeded_sweep(p, 30)
        del seeded[:], clean_runs[:]
        assert diff_runs(p, seeds=30) == reference
        assert "full" not in clean_runs
        fallbacks += len(seeded)
        without_clean_run += not clean_runs
    if bits == 8:
        assert 0 < fallbacks < 30 * len(programs)
    # the symbolic run stands for the clean run on some programs, not all;
    # no sweep runs the clean machine from step 0
    assert 0 < without_clean_run < len(programs)


def _overwritten_words(base: str, count: int) -> str:
    """``count`` words each stored through sp, stored again through the
    pointer ``base`` calculates from sp, and reloaded through sp."""
    lines = ["#@ entry main", "main:", "  li t0 7", f"  {base}"]
    for k in range(count):
        lines += [f"  sw t0 {4 * k}(sp)", f"  sw t0 {4 * k}(t1)", f"  lw v0 {4 * k}(sp)"]
    return "\n".join(lines + ["  jr ra"]) + "\n"


def test_collision_check_evaluates_the_seeded_tags(hello, corpus_programs):
    # the tags the check gives each group are the tags the seeded loop
    # gives the effective addresses of that word; the pointers program
    # calculates addresses by addu and nand, with two salted inputs.  Only
    # the words of loads that read another calculation's lanes have groups
    pointers = parse_program("#@ entry main\nmain:\n  li t0 buf\n  li t1 4\n  addu t2 t0 t1\n"
                             "  nand t3 t1 t1\n  nand t3 t3 t3\n  addu t3 t0 t3\n"
                             "  sw t1 0(t2)\n  lw v0 0(t3)\n  jr ra\nbuf:\n  .bytes 1 2 3 4 5 6 7 8\n")
    programs = [hello, pointers, corpus_programs["foo_bad_caller"],
                corpus_programs["table2_middle"], parse_program(_TWO_CALCULATIONS),
                parse_program(_LANE_OVERWRITE)]
    programs += [parse_program(_overwritten_words(base, 6))
                 for base in ("addiu t1 sp 0", "addu t1 sp zero",
                              "nand t1 sp sp\n  nand t1 t1 t1")]
    programs += [generate_program(s, n) for s in range(10) for n in (12, 64)]
    checked = 0
    for p in programs:
        image = build_image(p)
        symbolic = _engine.run_symbolic_image(image, DEFAULT_FUEL)
        checked += len(symbolic.groups)
        for seed in (1, 2, 77):
            words = {}

            def recording(seed, domain, *vals):
                t = tag(seed, domain, *vals)
                if domain == T_EA:
                    words.setdefault(((vals[0] & M32) + vals[1]) & M32 & ~3, set()).add(t)
                return t

            _engine._run(image, DEFAULT_FUEL, seed, recording)
            t = _engine._seed_tags(symbolic, seed)
            assert sorted(sorted(t[i] for i in g) for g in symbolic.groups) == \
                sorted(sorted(words[w]) for w in symbolic.mixed if len(words[w]) > 1)
    assert checked > 20


def test_noinit_blob_keeps_the_clean_run():
    # every word has one calculation and the symbolic run ends without
    # error, yet its v0 is not the clean run's
    p = parse_program(_NOINIT_AFTER_STORE)
    symbolic = _engine.run_symbolic_image(build_image(p), DEFAULT_FUEL)
    assert symbolic.outcome.ok and not symbolic.groups and symbolic.outcome.regs[2] == 0x41
    rep = diff_runs(p, seeds=10)
    assert rep == _seeded_sweep(p, 10)
    assert [d.reason for d in rep.divergences] == \
        ["register 2 ends 0x00000041 vs clean 0x04030241"] * 10


# runs out of fuel, at the same step on every machine
_ENDLESS = "#@ entry main\nmain:\n  addiu t0 t0 1\n  j main\n"


@pytest.mark.parametrize("name, expected", [("foo_good", 0), ("hello", 0),
                                            ("two_calculations", 1), ("lane_overwrite", 1),
                                            ("endless", 0)])
def test_sweep_runs_the_clean_machine_only_when_needed(name, expected, corpus_programs,
                                                       clean_runs):
    # every load of foo_good and hello.s reads lanes its own calculation
    # wrote, hello.s's string reads included, though the loader keys the
    # string both as an array and along the string chain; the endless loop
    # loads nothing, so its failed symbolic run is the failed clean run.
    # The other two reload a word through sp after another calculation
    # wrote it, so the clean machine resumes from the symbolic run's state
    # before that reload, never from step 0
    p = corpus_programs.get(name) or parse_program(
        {"two_calculations": _TWO_CALCULATIONS, "lane_overwrite": _LANE_OVERWRITE,
         "endless": _ENDLESS}[name])
    if name == "endless":
        with pytest.raises(ValueError, match=r"^clean run fails \(FuelExhausted at pc=0x400000\)"):
            diff_runs(p, seeds=5, fuel=1000)
    else:
        diff_runs(p, seeds=5)
    assert clean_runs == ["resumed"] * expected


@pytest.mark.parametrize("bits", [32, 8, 3])
def test_load_of_a_lane_another_calculation_wrote(bits, clean_runs, monkeypatch):
    # the reload through sp reads a lane the byte store wrote through
    # another calculation: the sweep resumes the clean machine before that
    # reload, and seeds whose narrow tags merge the two calculations agree
    # with the clean run
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    p = parse_program(_LANE_OVERWRITE)
    symbolic = _engine.run_symbolic_image(build_image(p), DEFAULT_FUEL)
    assert symbolic.outcome.ok and symbolic.outcome.regs[2] == 0x01020304
    assert len(symbolic.mixed) == 1 and [len(g) for g in symbolic.groups] == [2]
    assert run(p).regs[2] == 0x01024104
    del clean_runs[:]
    rep = diff_runs(p, seeds=30)
    assert clean_runs == ["resumed"]
    assert rep == _seeded_sweep(p, 30)
    if bits == 32:
        assert [d.reason for d in rep.divergences] == \
            ["register 2 ends 0x01020304 vs clean 0x01024104"] * 30
    if bits == 3:
        assert 0 < len(rep.divergences) < 30


def test_resumed_clean_run_equals_the_full_run(corpus_programs):
    # the clean machine resumed from the symbolic run's state before its
    # first load that is not self-sourced: that load misses in
    # foo_bad_caller and most mutants, hits in the two calculations and
    # the lane overwrite (whose resumed memory merges two writers' lanes),
    # and after the byte store of `_NOINIT_AFTER_STORE` reads lanes of a
    # `noinit` blob nobody wrote.  Fuel ends the runs before that load,
    # at it and after it
    sources = [_TWO_CALCULATIONS, _LANE_OVERWRITE, _NOINIT_AFTER_STORE]
    sources += [_overwritten_words(base, 6) for base in
                ("addiu t1 sp 0", "addu t1 sp zero", "nand t1 sp sp\n  nand t1 t1 t1")]
    sources += [mutate_source(generate_source(s, n), s) for s in range(200) for n in (24, 64)]
    programs = [corpus_programs["foo_bad_caller"]] + [parse_program(s) for s in sources]
    resumed = hits = 0
    for p in programs:
        image = build_image(p)
        start = _engine.run_symbolic_image(image, DEFAULT_FUEL).start
        if start is None:
            continue
        for fuel in sorted({1, max(start.steps, 1), start.steps + 1, DEFAULT_FUEL}):
            symbolic = _engine.run_symbolic_image(image, fuel)
            assert (symbolic.start is not None) == (fuel > start.steps)
            assert _engine.clean_outcome(image, fuel, symbolic) == \
                _engine.run_clean_image(image, fuel)
            resumed += symbolic.start is not None
            hits += symbolic.start is not None and symbolic.outcome.steps > start.steps + 1
    assert resumed > 60 and hits >= 6


def test_every_fuel_stops_where_single_steps_stop(corpus_programs):
    # the loop runs a basic block at a time; at every fuel up to the clean
    # run's end, each machine stops at the step, pc and state of the
    # single-step reference.  Fuel cuts blocks short; hello.s enters the
    # block of `$B` both at `$B` and at the return from printchar just
    # before it, and halts inside a block; foo_bad_caller and some
    # mutants fault on the aliasing machine
    sources = [generate_source(s, 24) for s in range(8)]
    sources += [mutate_source(src, s) for s, src in enumerate(sources)]
    programs = list(corpus_programs.values()) + [parse_program(s) for s in sources]
    cut = ends = faults = 0
    for p in programs:
        image = build_image(p)
        for fuel in range(1, _engine.run_clean_image(image, DEFAULT_FUEL).steps + 2):
            clean = _engine.run_clean_image(image, fuel)
            assert clean == run_by_steps(p, fuel)
            symbolic = _engine.run_symbolic_image(image, fuel)
            assert _engine.clean_outcome(image, fuel, symbolic) == clean
            for seed in (1, 2, 3):
                aliased = _engine.run_alias_image(image, fuel, seed)
                assert _engine.run_alias_image(image, fuel, seed, symbolic) == aliased
                faults += aliased.error == "AliasFault"
            before = image.code.get((clean.error_pc or 0) - 4)
            cut += clean.error == "FuelExhausted" and before is not None and \
                before[1] not in _engine._TRANSFERS
            ends += clean.exit_reason == "halt-device"
    assert cut > 300 and ends and faults


def test_noinit_blob_is_preloaded_on_the_clean_machine_only():
    # the clean machine holds every declared byte; the aliasing machine
    # never wrote a `noinit` blob, so reading it before a store fails
    p = parse_program("#@ entry main\nmain:\n  li t0 buf\n  lw t1 0(t0)\n  jr ra\n"
                      "buf:\n  .bytes 1 2 3 4 noinit\n")
    clean = run(p)
    assert clean.ok and clean.regs[9] == 0x04030201  # t1
    for seed in (1, 2, 7):
        aliased = run_aliased(p, AliasConfig(seed=seed))
        assert aliased.error == "UninitializedRead" and not aliased.faults
    rep = diff_runs(p, seeds=20)
    assert [d.seed for d in rep.divergences] == list(range(1, 21))


def test_word_string_read_one_step_at_a_time():
    # a step-4 string read a word a step: the loader keys each word along
    # the string chain, so every load through the stepped pointer hits on
    # both machines
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, v0=c^[0], t0=c^[0]\n"
                      "main:\n  li a0 words\nloop:\n  lw t0 0(a0)\n  addiu a0 a0 4\n"
                      "  addu v0 v0 t0\n  bnez t0 loop\n  jr ra\n"
                      'words:\n  .bytes "abcdefgh" 0 0 0 0 step=4\n')
    assert certify_program(p).safe
    clean = run(p)
    assert clean.ok and clean.steps == 14
    assert clean.regs[2] == (int.from_bytes(b"abcd", "little")
                             + int.from_bytes(b"efgh", "little")) & M32  # v0
    assert clean.regs[4] == p.labels["words"] + 12  # a0
    for seed in (1, 2, 7):
        aliased = run_aliased(p, AliasConfig(seed=seed))
        assert compare_runs(clean, aliased, seed) is None and aliased.steps == 14
    assert diff_runs(p, seeds=20).ok


def test_determinism_per_seed(hello):
    a = run_aliased(hello, AliasConfig(seed=5))
    b = run_aliased(hello, AliasConfig(seed=5))
    assert a.regs == b.regs and a.output == b.output and a.steps == b.steps


def test_diff_runs_on_good_and_bad(corpus_programs):
    good = diff_runs(corpus_programs["foo_good"], seeds=50)
    assert good.ok
    bad = diff_runs(corpus_programs["foo_bad_caller"], seeds=50)
    assert len(bad.divergences) == 50


def test_diff_requires_clean_success(corpus_programs):
    p = parse_program("#@ entry main\nmain:\n  lw v0 0(sp)\n  jr ra\n")
    with pytest.raises(ValueError):
        diff_runs(p, seeds=2)


def test_program_without_memory_ops_never_diverges():
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  move t0 zero\n  addiu t1 t0 3\n  addu t2 t1 t1\n"
        "  nand t3 t2 t1\n  jr ra\n")
    rep = diff_runs(p, seeds=100)
    assert rep.ok


# t1 is another calculation of t0's word and t2 a calculated zero: the
# branches read words, never tags, so every machine takes the beq and
# falls through the bnez
_BRANCHES = ("#@ entry main\nmain:\n  li t0 8\n  addiu t1 t0 0\n  li v0 1\n"
             "  beq t0 t1 same\n  li v0 2\nsame:\n  addiu t2 t0 -8\n"
             "  bnez t2 nonzero\n  addiu v0 v0 4\nnonzero:\n  jr ra\n")


@pytest.mark.parametrize("bits", [32, 8, 3])
def test_branches_compare_words_not_tags(bits, monkeypatch):
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    image = build_image(parse_program(_BRANCHES))
    clean = _engine.run_clean_image(image, DEFAULT_FUEL)
    assert clean.ok and clean.regs[2] == 5 and clean.steps == 8  # v0
    runs = [_engine.run_symbolic_image(image, DEFAULT_FUEL).outcome]
    runs += [_engine.run_alias_image(image, DEFAULT_FUEL, seed) for seed in range(1, 31)]
    assert runs == [clean] * len(runs)


# the byte store rewrites lane 0 of the stored pointer with the byte it
# already holds, through the same calculation of sp
_REWRITTEN_POINTER = ("#@ entry main\nmain:\n  li t0 buf\n  sw t0 0(sp)\n  sb t0 0(sp)\n"
                      "  lw t1 0(sp)\n  lw v0 0(t1)\n  jr ra\nbuf:\n  .bytes 1 2 3 4\n")


def test_a_byte_store_leaves_a_plain_word():
    # the reload holds the pointer's word but no longer its calculation,
    # so a base made of it misses the cells the loader keyed through buf
    p = parse_program(_REWRITTEN_POINTER)
    clean = run(p)
    assert clean.ok and clean.regs[2] == 0x04030201  # v0
    image = build_image(p)
    for seed in range(1, 31):
        out = _engine.run_alias_image(image, DEFAULT_FUEL, seed)
        assert out.error == "AliasFault" and out.error_pc == p.labels["main"] + 16
        assert out.regs[9] == p.labels["buf"]  # t1
    rep = diff_runs(p, seeds=30)
    assert [d.seed for d in rep.divergences] == list(range(1, 31))


# a counter reloaded and stored back through sp, then a string read byte
# by byte through a pointer that steps on every iteration
_MEMO_LOOPS = ("#@ entry main\nmain:\n  addiu t1 zero 20\n  sw t1 8(sp)\nloop:\n  lw t1 8(sp)\n"
               "  addiu t1 t1 -1\n  sw t1 8(sp)\n  bnez t1 loop\n  li a0 msg\nnext:\n"
               "  lb a1 0(a0)\n  addiu a0 a0 1\n  bnez a1 next\n  jr ra\nmsg:\n  .bytes \"abc\\0\"\n")


def test_a_memory_instruction_salts_its_address_once_per_base():
    # each of the three accesses through sp calculates its tag once; the
    # byte load's base differs on each of its four steps
    p = parse_program(_MEMO_LOOPS)
    image = build_image(p)
    bases = []

    def counted(seed, domain, *vals):
        if domain == T_EA:
            bases.append(vals[0])
        return tag(seed, domain, *vals)

    _engine._preload(image.blobs, 7, counted)
    preloaded = len(bases)
    out = _engine._run(image, DEFAULT_FUEL, 7, counted)
    assert out == _engine.run_alias_image(image, DEFAULT_FUEL, 7) == run(p)
    looped = bases[2 * preloaded:]
    assert looped[:3] == [looped[0]] * 3 and len(looped) == 3 + 4
    assert len(set(looped[3:])) == 4


# Three corners of the memory instructions' per-pc cache.  A byte store
# whose base swaps between the printer and a stack word on every
# iteration: a device store is decoded again each time it runs, so the
# printer prints on the first and third iteration and the second stores
# into the stack word read back at the end
_DEVICE_ALTERNATING = (
    "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -16\n  li t1 0xb0000000\n"
    "  move t2 sp\n  addiu t3 zero 3\nloop:\n  addiu a0 zero 65\n  sb a0 0(t1)\n"
    "  move t4 t1\n  move t1 t2\n  move t2 t4\n  addiu t3 t3 -1\n  bnez t3 loop\n"
    "  lb v0 0(sp)\n  move sp gp\n  jr ra\n")
# a word load through a copy of sp, then through sp + 2: the second run
# of the load is off a word boundary
_MISALIGNED_SECOND = (
    "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -16\n  li t0 7\n  sw t0 0(sp)\n"
    "  move t1 sp\n  addiu t3 zero 2\nloop:\n  lw v0 0(t1)\n  addiu t1 t1 2\n"
    "  addiu t3 t3 -1\n  bnez t3 loop\n  move sp gp\n  jr ra\n")
# a word load of the stored word through a copy of sp, then through
# sp + 0: the same word under a new calculation, which misses its cell
_RETAGGED_WORD = (
    "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -16\n  li t0 7\n  sw t0 0(sp)\n"
    "  move t1 sp\n  addiu t3 zero 2\nloop:\n  lw v0 0(t1)\n  addiu t1 sp 0\n"
    "  addiu t3 t3 -1\n  bnez t3 loop\n  move sp gp\n  jr ra\n")
# a byte load through a stack word, then through the printer's address:
# the second run of the load misses its entry and reads a device
_DEVICE_LOAD_SECOND = (
    "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -16\n  addiu a0 zero 65\n"
    "  sb a0 0(sp)\n  move t1 sp\n  li t2 0xb0000000\n  move t3 sp\nloop:\n  lb v0 0(t1)\n"
    "  move t1 t2\n  move t2 t3\n  j loop\n")
CACHE_CORNERS = {"device_alternating": _DEVICE_ALTERNATING,
                 "misaligned_second": _MISALIGNED_SECOND,
                 "retagged_word": _RETAGGED_WORD,
                 "device_load_second": _DEVICE_LOAD_SECOND}


def _clean_and_seeded(source: str):
    """The clean run of ``source``, checked against one step at a time,
    and its runs at seeds 1 to 3."""
    p = parse_program(source)
    clean = run(p)
    assert clean == run_by_steps(p)
    image = build_image(p)
    return p, clean, [_engine.run_alias_image(image, DEFAULT_FUEL, s) for s in (1, 2, 3)]


def test_a_store_whose_base_alternates_with_the_printer():
    p, clean, seeded = _clean_and_seeded(_DEVICE_ALTERNATING)
    assert clean.ok and clean.output == b"AA" and clean.steps == 29
    assert clean.regs[2] == 0x41  # v0
    assert seeded == [clean] * 3
    rep = diff_runs(p, seeds=8)
    assert rep.divergences == [] and rep.checked_words == 0 and rep.seeded_runs == 0


def test_a_word_load_whose_base_turns_misaligned():
    p, clean, seeded = _clean_and_seeded(_MISALIGNED_SECOND)
    assert (clean.error, clean.error_pc, clean.steps) == ("UnalignedWordAccess", 0x00400018, 11)
    assert [(o.error, o.error_pc, o.steps, o.faults) for o in seeded] == \
        [("UnalignedWordAccess", 0x00400018, 11, [])] * 3
    with pytest.raises(ValueError,
                       match=r"^clean run fails \(UnalignedWordAccess at pc=0x400018\)"):
        diff_runs(p, seeds=8)


def test_a_word_load_of_the_same_word_under_a_new_tag():
    p, clean, seeded = _clean_and_seeded(_RETAGGED_WORD)
    assert clean.ok and clean.steps == 16 and clean.regs[2] == 7  # v0
    assert [(o.error, o.error_pc, o.steps) for o in seeded] == [("AliasFault", 0x00400018, 11)] * 3
    rep = diff_runs(p, seeds=8)
    assert [d.seed for d in rep.divergences] == list(range(1, 9))
    assert rep.checked_words == 1 and rep.seeded_runs == 0


def _per_seed_sweep(program, seeds: int):
    """The sweep as a loop over every seed, each settled by the symbolic
    run or the seeded loop, with the fields kept out of equality."""
    image = build_image(program)
    symbolic = _engine.run_symbolic_image(image, DEFAULT_FUEL)
    clean = _engine.clean_outcome(image, DEFAULT_FUEL, symbolic)
    if not clean.ok:
        return None
    divergences, seeded_runs = [], 0
    for seed in range(1, seeds + 1):
        aliased = _engine.run_alias_image(image, DEFAULT_FUEL, seed, symbolic)
        seeded_runs += aliased is not symbolic.outcome
        d = compare_runs(clean, aliased, seed)
        if d is not None:
            divergences.append(d)
    rep = DiffReport(seeds, clean, divergences)
    return rep, len(symbolic.mixed), seeded_runs, \
        None if symbolic.start is None else symbolic.start.steps


def test_a_sweep_one_run_settles_visits_no_seed(hello, monkeypatch):
    # every load of hello.s is self-sourced, so its symbolic run is every
    # seed's run: a billion seeds need neither a seeded run nor a comparison
    def visited(*args):
        raise AssertionError("the sweep visited a seed")

    monkeypatch.setattr(_engine, "run_alias_image", visited)
    monkeypatch.setattr(aliasing, "compare_runs", visited)
    rep = diff_runs(hello, seeds=10**9)
    assert rep.seeds == 10**9 and rep.ok and rep.clean.output == b"Hi"
    assert (rep.checked_words, rep.seeded_runs, rep.resumed_at) == (0, 0, None)


@pytest.mark.parametrize("bits", [32, 8, 3])
def test_sweep_equals_the_per_seed_loop(bits, corpus_programs, monkeypatch):
    monkeypatch.setattr(_engine, "TAG_MASK", (1 << bits) - 1)
    programs = list(corpus_programs.values()) + [generate_program(s) for s in range(20)]
    settled = 0
    for p in programs:
        expected = _per_seed_sweep(p, 50)
        if expected is None:
            with pytest.raises(ValueError, match="^clean run fails"):
                diff_runs(p, seeds=50)
            continue
        rep = diff_runs(p, seeds=50)
        assert (rep, rep.checked_words, rep.seeded_runs, rep.resumed_at) == expected
        settled += not rep.checked_words
    assert settled


def test_a_byte_load_whose_base_turns_to_the_device():
    p, clean, seeded = _clean_and_seeded(_DEVICE_LOAD_SECOND)
    assert (clean.error, clean.error_pc, clean.steps) == ("DeviceReadUnsupported", 0x0040001C, 12)
    assert [(o.error, o.error_pc, o.steps, o.faults) for o in seeded] == \
        [("DeviceReadUnsupported", 0x0040001C, 12, [])] * 3
    with pytest.raises(ValueError,
                       match=r"^clean run fails \(DeviceReadUnsupported at pc=0x40001c\)"):
        diff_runs(p, seeds=8)
