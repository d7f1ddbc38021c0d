"""Seeded input generators for the benchmark, each with its known answer.

Every program is built so that its answer follows from how it was built:
the verdict, the failing address of an UNSAFE program, the bytes a clean
run prints, the number of seeds that diverge, the pc of the alias fault,
and the number of steps a clean and an aliased run take.  The benchmark
checks each operation against these answers and never against the
output of the code under test.

The generators are the benchmark's own (``aliascert.quickgen`` is meant
to grow, which would change the inputs under later changes).  A seed
changes registers, stack slots, immediates and text, never the size of a
program, so every seed costs about the same and runs stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

BASE = 0x00400000  # load address of the first instruction (aliascert.isa)
DEVICE = 0xB0000000  # printer; DEVICE + 0x10 halts

SAFE, UNSAFE = "SAFE", "UNSAFE"

# Seeds compared per diff_runs call in the sweep workloads.
SWEEP_SEEDS = 8
# Iterations of the counter loop: 4 instructions each, so a clean run
# takes just over 10^5 steps.
COUNTER_ITERATIONS = 25_000
# Characters in the string-loop text: 7 instructions each.
TEXT_CHARS = 4_000

CERTIFY_SCALE_SIZES = (100, 200, 400, 800, 1600, 3200)
BACKTRACK_KS = tuple(range(4, 14))

_SCRATCH = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "v0", "a1", "a2", "a3")
_LETTERS = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,"


@dataclass(frozen=True)
class Case:
    """One generated input and its known answer."""

    name: str
    family: str
    source: str
    instructions: int
    verdict: str
    fail_addr: int | None = None     # address named by an UNSAFE verdict
    k: int | None = None             # li count in the backtracking family
    output: bytes | None = None      # what a clean run prints
    divergences: int | None = None   # seeds that differ from the clean run
    fault_pc: int | None = None      # pc of the alias fault in every seed
    clean_steps: int | None = None
    alias_steps: int | None = None   # steps of one aliased run

    def write(self, directory: Path) -> Path:
        path = directory / self.name
        path.write_text(self.source, encoding="utf-8")
        return path


class _Asm:
    """Assembles lines, tracking each instruction's address and how many
    times a clean run executes it."""

    def __init__(self, entry: str = "main", assume: str = "sp*=c^[0], ra=u^0"):
        self.lines = [f"#@ entry {entry}", f"#@ assume {entry}: {assume}"]
        self.count = 0       # instructions emitted so far
        self.executed = 0    # clean-run steps, each instruction counted as often as it runs

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def op(self, text: str, times: int = 1) -> int:
        """Emit one instruction executed ``times`` times; returns its address."""
        addr = BASE + 4 * self.count
        self.lines.append(f"    {text}")
        self.count += 1
        self.executed += times
        return addr

    def data(self, name: str, payload: bytes) -> None:
        self.lines += [f"{name}:", f'    .bytes "{payload.decode()}\\0"']

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _word(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choice(_LETTERS) for _ in range(n))


# --------------------------------------------------------------------------
# certify_scale: per-instruction cost, no rejected reading


def _stack_units(a: _Asm, rng: random.Random, budget: int, frame: int,
                 calls: tuple[str, ...] = ()) -> None:
    """Fill ``budget`` instructions with stack stores, reloads, copies,
    calculated constants and (if given) calls; every one of them has a
    single stack-machine reading."""
    written: list[int] = []
    slots = list(range(0, frame - 4, 4))  # the top word keeps ra
    while budget > 0:
        kinds = ["put", "const", "nop", "move"]
        if written:
            kinds += ["get", "get"]
        if calls:
            kinds += ["call"]
        kind = rng.choice(kinds)
        r = rng.choice(_SCRATCH)
        if kind == "put":
            o = rng.choice(slots)
            a.op(f"sw zero {o}(sp)")
            if o not in written:
                written.append(o)
        elif kind == "get":
            a.op(f"lw {r} {rng.choice(written)}(sp)")
        elif kind == "const":
            a.op(f"addiu {r} zero {rng.randrange(1, 1000)}")
        elif kind == "move":
            a.op(f"move {r} zero")
        elif kind == "call":
            a.op(f"jal {rng.choice(calls)}")
        else:
            a.op("nop")
        budget -= 1


def straight_line(seed: int, size: int) -> Case:
    """``size`` instructions in one routine: stack stores and reloads,
    copies and constants.  SAFE by construction."""
    rng = random.Random(f"straight/{seed}/{size}")
    frame = rng.choice((32, 48, 64))
    a = _Asm()
    a.label("main")
    a.op("move gp sp")
    a.op(f"addiu sp sp -{frame}")
    _stack_units(a, rng, size - 4, frame)
    a.op("move sp gp")
    a.op("jr ra")
    return Case(f"straight_{size}.s", "straight", a.source(), a.count, SAFE)


def call_sites(seed: int, size: int) -> Case:
    """``main`` calls three leaf routines from many sites, between stack
    stores and reloads; ``size`` instructions in all.  SAFE by
    construction."""
    rng = random.Random(f"calls/{seed}/{size}")
    frame = 32
    routines = ("put_a", "put_b", "put_c")
    a = _Asm()
    a.label("main")
    a.op("move gp sp")
    a.op(f"addiu sp sp -{frame}")
    a.op(f"sw ra {frame - 4}(sp)")
    body = size - 6 - 3 * len(routines)
    _stack_units(a, rng, body, frame, routines)
    a.op(f"lw ra {frame - 4}(sp)")
    a.op("move sp gp")
    a.op("jr ra")
    for name in routines:
        a.label(name)
        a.op(f"addiu v1 zero {rng.randrange(1, 1000)}")
        a.op("move a0 v1")
        a.op("jr ra")
    return Case(f"calls_{size}.s", "calls", a.source(), a.count, SAFE)


def certify_scale(seed: int) -> list[Case]:
    """Both families at sizes 100 to 3200.  Each size class holds the same
    number of instructions (size 100 appears 32 times, 3200 once), so no
    class dominates the instruction count and a pass holds enough
    operations for a 90th percentile.  Sizes past about 490 instructions
    raise RecursionError while the search recurses once per instruction."""
    cases = []
    top = CERTIFY_SCALE_SIZES[-1]
    for size in CERTIFY_SCALE_SIZES:
        for copy in range(top // size):
            for make in (straight_line, call_sites):
                case = make(seed * 1000 + copy, size)
                cases.append(replace(case, name=f"{case.name[:-2]}_{copy}.s"))
    return cases


# --------------------------------------------------------------------------
# certify_backtrack: readings rejected late, search tree explored


def k_li(seed: int, k: int, unsafe: bool) -> Case:
    """``k`` registers introduced by ``li`` of one three-byte blob, each
    later read as an array at offset 1 or 2.  The first reading tried for
    ``li`` is a string pointer, which such a read rejects only after every
    ``li`` has been decided, so the search tries 2^k combinations before
    the all-array one.  The UNSAFE variant then reads past the blob, which
    no reading allows, so its verdict comes after the whole tree."""
    rng = random.Random(f"kli/{seed}/{k}/{unsafe}")
    regs = rng.sample(_SCRATCH + ("s0", "s1", "s2", "s3", "s4", "s5"), k)
    a = _Asm(assume="ra=u^0")
    a.label("main")
    for r in regs:
        a.op(f"li {r} table")
    for r in regs:
        a.op(f"lb a0 {rng.randrange(1, 3)}({r})")
    fail = a.op(f"lb a0 {rng.randrange(3, 8)}({rng.choice(regs)})") if unsafe else None
    a.op("jr ra")
    a.data("table", _word(rng, 2))
    tag = "unsafe" if unsafe else "safe"
    return Case(f"kli_{k:02d}_{tag}.s", "kli", a.source(), a.count,
                UNSAFE if unsafe else SAFE, fail_addr=fail, k=k)


# The paper's examples with their verdicts: frame restore by copy and by
# arithmetic (foo_good, foo_bad, foo_bad_caller), the three array/string
# readings of Table 2, and hello world.
CORPUS_ANSWERS = {
    "foo_good.s": (SAFE, None),
    "foo_bad.s": (UNSAFE, 0x00400010),
    "foo_bad_caller.s": (UNSAFE, 0x0040000C),
    "hello.s": (SAFE, None),
    "table2_left.s": (SAFE, None),
    "table2_middle.s": (UNSAFE, 0x00400004),
    "table2_right.s": (SAFE, None),
}


def corpus_case(corpus: Path, name: str) -> Case:
    source = (corpus / name).read_text(encoding="utf-8")
    verdict, fail = CORPUS_ANSWERS[name]
    n = sum(1 for line in source.splitlines() if _is_instruction(line))
    return Case(name, "corpus", source, n, verdict, fail_addr=fail)


def _is_instruction(line: str) -> bool:
    text = line.split("#", 1)[0].strip()
    if ":" in text:
        text = text.split(":", 1)[1].strip()
    return bool(text) and not text.startswith(".")


def certify_backtrack(seed: int, corpus: Path) -> list[Case]:
    cases = [k_li(seed, k, unsafe) for k in BACKTRACK_KS for unsafe in (False, True)]
    return cases + [corpus_case(corpus, name) for name in sorted(CORPUS_ANSWERS)]


# --------------------------------------------------------------------------
# sweeps: long clean runs, and the same runs ending in an alias fault


def _counter_loop(a: _Asm, rng: random.Random, slot: int) -> bytes:
    """A counter kept in a stack slot, reloaded and stored back on every
    iteration; then a short seeded message.  Returns the message."""
    r = rng.choice(("t0", "t1", "t2", "t3"))
    a.op(f"addiu {r} zero {COUNTER_ITERATIONS}")
    a.op(f"sw {r} {slot}(sp)")
    a.label("loop")
    a.op(f"lw {r} {slot}(sp)", COUNTER_ITERATIONS)
    a.op(f"addiu {r} {r} -1", COUNTER_ITERATIONS)
    a.op(f"sw {r} {slot}(sp)", COUNTER_ITERATIONS)
    a.op(f"bnez {r} loop", COUNTER_ITERATIONS)
    message = _word(rng, 4)
    a.op(f"li v1 0x{DEVICE:08x}")
    for byte in message:
        a.op(f"addiu a0 zero {byte}")
        a.op("sb a0 0(v1)")
    return message


def _string_loop(a: _Asm, rng: random.Random, slot: int) -> bytes:
    """Prints a marker byte, then a long text one byte at a time through a
    pointer kept in a stack slot.  Returns everything printed."""
    text = _word(rng, TEXT_CHARS)
    marker = rng.choice(_LETTERS)
    a.op(f"li v1 0x{DEVICE:08x}")
    a.op(f"addiu a1 zero {marker}")
    a.op("sb a1 0(v1)")
    a.op("li a0 text")
    a.op(f"sw a0 {slot}(sp)")
    a.op("j test")
    a.label("body")
    for line in ("sb a1 0(v1)", f"lw a0 {slot}(sp)", "addiu a0 a0 1", f"sw a0 {slot}(sp)"):
        a.op(line, TEXT_CHARS)
    a.label("test")
    for line in (f"lw a0 {slot}(sp)", "lb a1 0(a0)", "bnez a1 body"):
        a.op(line, TEXT_CHARS + 1)
    return bytes([marker]) + text


def _sweep_case(seed: int, shape: str, faulty: bool) -> Case:
    """A long-running ``main`` of the given shape.  The clean variant
    restores its frame by copy and certifies SAFE.  The faulty variant
    then calls ``foo``, which restores the stack pointer by arithmetic
    (the foo_bad_caller bug), so the reload of ``ra`` after the call
    misses its cell on every seed."""
    rng = random.Random(f"sweep/{seed}/{shape}/{faulty}")
    frame = 32
    slot = rng.choice((4, 8, 12, 16))
    a = _Asm()
    a.label("main")
    a.op("move gp sp")
    a.op(f"addiu sp sp -{frame}")
    if faulty:
        a.op(f"sw ra {frame - 4}(sp)")
    body = _counter_loop if shape == "counter" else _string_loop
    output = body(a, rng, slot)
    fault_pc = alias_steps = None
    if faulty:
        a.op("jal foo")
        before_call = a.executed
        fault_pc = a.op(f"lw ra {frame - 4}(sp)")
        alias_steps = before_call + 4 + 1  # foo's four instructions, then the reload
    a.op("move sp gp")
    a.op("jr ra")
    if faulty:
        a.label("foo")
        for line in ("addiu sp sp -32", "sw zero 0(sp)", "addiu sp sp 32", "jr ra"):
            a.op(line)
    if shape == "string":
        a.data("text", output[1:])
    steps = a.executed
    name = f"{shape}_{'fault' if faulty else 'clean'}.s"
    return Case(name, f"sweep_{shape}", a.source(), a.count,
                UNSAFE if faulty else SAFE,
                output=output,
                divergences=SWEEP_SEEDS if faulty else 0,
                fault_pc=fault_pc,
                clean_steps=steps,
                alias_steps=alias_steps if faulty else steps)


def sweep_clean(seed: int, corpus: Path) -> list[Case]:
    """A counter loop of 10^5 steps, a 4000-byte string loop and hello.s:
    every seed agrees with the clean run."""
    hello = corpus_case(corpus, "hello.s")
    hello = replace(hello, output=b"Hi", divergences=0, clean_steps=61, alias_steps=61)
    return [_sweep_case(seed, "counter", False), _sweep_case(seed, "string", False), hello]


def sweep_fault(seed: int, corpus: Path) -> list[Case]:
    """The same loops followed by the arithmetic frame restore, and
    foo_bad_caller.s itself: every seed faults at the known reload."""
    caller = corpus_case(corpus, "foo_bad_caller.s")
    caller = replace(caller, output=b"", divergences=SWEEP_SEEDS, fault_pc=0x00400010,
                     clean_steps=11, alias_steps=9)
    return [_sweep_case(seed, "counter", True), _sweep_case(seed, "string", True), caller]
