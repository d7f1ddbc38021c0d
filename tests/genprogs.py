"""Deterministic program generators for the tests.

Every generated program is SAFE or UNSAFE by construction, and every one
of its instructions is reachable.
"""

from __future__ import annotations

import random
import re

from aliascert import Program, parse_program

_SCRATCH = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "v0", "a1", "a2", "a3")
# registers for the k-li family: up to 24 ``li``, none of them a0 (the
# reads' destination), s0 and s1 (the copies), or gp, sp and ra
_KLI_REGS = _SCRATCH + ("s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "v1", "at")
_HEADER = ["#@ entry main", "#@ assume main: sp*=c^[0], ra=u^0", "main:"]


def _stack_body(rng: random.Random, count: int, frame: int,
                calls: tuple[str, ...] = ()) -> list[str]:
    """``count`` instructions of stack stores, reloads, copies, constants
    and (if given) calls, each with a single stack-machine reading."""
    body: list[str] = []
    written: list[int] = []
    slots = range(0, frame - 4, 4)  # the top word keeps ra
    while len(body) < count:
        kinds = ["put", "const", "nop", "move"] + ["get"] * 2 * bool(written)
        kinds += ["call"] * bool(calls)
        kind = rng.choice(kinds)
        r = rng.choice(_SCRATCH)
        if kind == "put":
            o = rng.choice(slots)
            body.append(f"    sw zero {o}(sp)")
            if o not in written:
                written.append(o)
        elif kind == "get":
            body.append(f"    lw {r} {rng.choice(written)}(sp)")
        elif kind == "const":
            body.append(f"    addiu {r} zero {rng.randrange(1, 1000)}")
        elif kind == "move":
            body.append(f"    move {r} zero")
        elif kind == "call":
            body.append(f"    jal {rng.choice(calls)}")
        else:
            body.append("    nop")
    return body


def straight_line(size: int, seed: int = 0) -> str:
    """``size`` instructions in one routine with one frame."""
    rng = random.Random(f"straight/{seed}/{size}")
    frame = rng.choice((32, 48, 64))
    lines = _HEADER + ["    move gp sp", f"    addiu sp sp -{frame}"]
    lines += _stack_body(rng, size - 4, frame)
    lines += ["    move sp gp", "    jr ra"]
    return "\n".join(lines) + "\n"


def call_sites(size: int, seed: int = 0) -> str:
    """``main`` calls three leaf routines from many sites; ``size``
    instructions in all."""
    rng = random.Random(f"calls/{seed}/{size}")
    frame = 32
    routines = ("put_a", "put_b", "put_c")
    lines = _HEADER + ["    move gp sp", f"    addiu sp sp -{frame}",
                       f"    sw ra {frame - 4}(sp)"]
    lines += _stack_body(rng, size - 6 - 3 * len(routines), frame, routines)
    lines += [f"    lw ra {frame - 4}(sp)", "    move sp gp", "    jr ra"]
    for name in routines:
        lines += [f"{name}:", f"    addiu v1 zero {rng.randrange(1, 1000)}",
                  "    move a0 v1", "    jr ra"]
    return "\n".join(lines) + "\n"


def call_chain(depth: int) -> str:
    """``main`` calls ``f1``, which calls ``f2``, and so on down to
    ``f<depth>``; each routine builds a frame, keeps ``ra`` and its
    caller's stack pointer there, and restores both by copy."""
    lines = _HEADER[:]
    for i in range(depth + 1):
        if i:
            lines.append(f"f{i}:")
        lines += ["    move t0 sp", "    addiu sp sp -8", "    sw ra 4(sp)", "    sw t0 0(sp)"]
        if i < depth:
            lines.append(f"    jal f{i + 1}")
        lines += ["    lw ra 4(sp)", "    lw t0 0(sp)", "    move sp t0", "    jr ra"]
    return "\n".join(lines) + "\n"


def kli_source(k: int, unsafe: bool) -> str:
    """``k`` registers loaded with one two-byte blob, each read back as an
    array, so the search rejects the string reading of every ``li``; the
    unsafe variant then reads past the blob's end."""
    regs = _KLI_REGS[:k]
    lines = ["#@ entry main", "#@ assume main: ra=u^0", "main:"]
    lines += [f"    li {r} table" for r in regs]
    lines += _kli_reads(regs, unsafe)
    lines += ["    jr ra", "table:", '    .bytes "xy\\0"']
    return "\n".join(lines) + "\n"


def _kli_reads(regs: tuple[str, ...], unsafe: bool) -> list[str]:
    """One array read of each register, then (unsafe) one past the end."""
    k = len(regs)
    lines = [f"    lb a0 {1 + i % 2}({r})" for i, r in enumerate(regs)]
    if unsafe:
        lines.append(f"    lb a0 {3 + k % 5}({regs[k // 2]})")
    return lines


def kli_move_source(k: int, unsafe: bool) -> str:
    """:func:`kli_source` with every read made through a ``move`` copy of
    the ``li`` register, so the read that rejects a reading names the copy,
    not the register the ``li`` wrote."""
    regs = _KLI_REGS[:k]
    lines = ["#@ entry main", "#@ assume main: ra=u^0", "main:"]
    lines += [f"    li {r} table" for r in regs]
    for r, read in zip(regs, _kli_reads(("s0",) * k, False)):
        lines += [f"    move s0 {r}", read]
    if unsafe:
        lines += [f"    move s1 {regs[k // 2]}", f"    lb a0 {3 + k % 5}(s1)"]
    lines += ["    jr ra", "table:", '    .bytes "xy\\0"']
    return "\n".join(lines) + "\n"


def kli_branch_source(k: int, unsafe: bool) -> str:
    """:func:`kli_source` with every read placed after a forward branch
    and its join: each branch target is walked first, with its fall-through
    (a ``nop``) pending until the target side has ended."""
    regs = _KLI_REGS[:k]
    lines = ["#@ entry main", "#@ assume main: ra=u^0", "main:"]
    lines += [f"    li {r} table" for r in regs]
    for i, line in enumerate(_kli_reads(regs, unsafe)):
        lines += [f"    bnez zero join{i}", "    nop", f"join{i}:", line]
    lines += ["    jr ra", "table:", '    .bytes "xy\\0"']
    return "\n".join(lines) + "\n"


def kli_callee_source(k: int, unsafe: bool) -> str:
    """:func:`kli_source` as a callee: ``main`` saves its return address,
    reaches the ``li`` routine through ``jal`` and restores its frame."""
    regs = _KLI_REGS[:k]
    lines = ["#@ entry main", "#@ assume main: sp*=c^[0], ra=u^0", "main:",
             "    move gp sp", "    addiu sp sp -8", "    sw ra 4(sp)",
             "    jal kli", "    lw ra 4(sp)", "    move sp gp", "    jr ra", "kli:"]
    lines += [f"    li {r} table" for r in regs]
    lines += _kli_reads(regs, unsafe)
    lines += ["    jr ra", "table:", '    .bytes "xy\\0"']
    return "\n".join(lines) + "\n"


# -- quickgen: seeded small certifiable programs ------------------------------
#
# Straight-line bodies (with optional annotation-neutral forward branches)
# built while tracking a shadow of the certifier's state, so emitted
# programs certify and run cleanly by construction.

_QUICK_SCRATCH = ["t0", "t1", "t2", "t3", "v0", "v1", "a0", "a1"]
_QUICK_FRAMES = [8, 16, 32]
_QUICK_BLOB = '"abcdef\\0"'


def generate_source(seed: int, max_instructions: int = 12) -> str:
    """One random certifiable program of at most ``max_instructions``."""
    rng = random.Random(seed)
    lines = ["#@ entry main",
             "#@ assume main: sp*=c^[0], ra=u^0",
             "main:"]
    body: list[str] = []
    used_blob = False

    frame = rng.choice([0] + _QUICK_FRAMES)
    budget = max_instructions
    if frame:
        body += ["    move gp sp", f"    addiu sp sp -{frame}"]
        budget -= 4  # prologue + epilogue
    else:
        budget -= 1  # bare return

    # shadow state: which registers hold plain words, which offsets are
    # written (with the kind of value stored), which register steps a string
    plain = ["zero"]
    written: dict[int, str] = {}
    string_reg: str | None = None
    steps_left = 0
    fp_offsets: set[int] | None = None  # offsets at the fp snapshot

    while budget > 0:
        choices = ["mov", "nop"]
        if frame:
            choices += ["put", "put"]
            if written:
                choices += ["get", "skip"]
            if written and fp_offsets is None:
                choices.append("snap")
            if fp_offsets is not None:
                choices.append("unsnap")
        if not used_blob:
            choices.append("newstr")
        if string_reg and steps_left > 0:
            choices += ["step", "readstr"]
        if len(plain) > 1:
            choices.append("arith")
        op = rng.choice(choices)

        if op == "put" and frame:
            k = 4 * rng.randrange(frame // 4)
            src = rng.choice(plain)  # plain registers hold c^[0]
            body.append(f"    sw {src} {k}(sp)")
            written[k] = "c0"
            budget -= 1
        elif op == "get" and written:
            k = rng.choice(sorted(written))
            dst = rng.choice([r for r in _QUICK_SCRATCH if r != string_reg])
            body.append(f"    lw {dst} {k}(sp)")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "mov":
            dst = rng.choice([r for r in _QUICK_SCRATCH if r != string_reg])
            body.append(f"    move {dst} zero")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "arith":
            srcs = [r for r in plain if r != "zero"]
            if not srcs:
                continue
            src = rng.choice(srcs)
            dst = rng.choice([r for r in _QUICK_SCRATCH if r not in (string_reg,)])
            body.append(f"    addiu {dst} {src} {rng.randrange(-8, 9)}")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "newstr":
            fresh = [r for r in _QUICK_SCRATCH if r not in plain]
            if not fresh:
                continue  # every scratch register holds a plain word
            string_reg = rng.choice(fresh)
            body.append(f"    li {string_reg} msg")
            used_blob = True
            steps_left = 5
            budget -= 1
        elif op == "step" and string_reg:
            body.append(f"    addiu {string_reg} {string_reg} 1")
            steps_left -= 1
            budget -= 1
        elif op == "readstr" and string_reg:
            dst = rng.choice([r for r in _QUICK_SCRATCH if r != string_reg])
            body.append(f"    lb {dst} 0({string_reg})")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "snap":
            # take a frame-pointer style copy of the stack pointer
            body.append("    move fp sp")
            fp_offsets = set(written)
            budget -= 1
        elif op == "unsnap":
            # refresh the stack pointer from the copy: written marks (and
            # slot bindings) roll back to the snapshot
            body.append("    move sp fp")
            written = {k: written[k] for k in fp_offsets}
            fp_offsets = None
            budget -= 1
        elif op == "skip" and written and budget >= 2:
            # a forward branch over a re-store of an already-written slot:
            # both paths carry the same annotation at the join
            k = rng.choice([k for k, kind in written.items() if kind == "c0"] or [None])
            if k is None:
                continue
            tested = rng.choice([r for r in plain])
            label = f"$s{len(body)}"
            body += [f"    bnez {tested} {label}", f"    sw zero {k}(sp)", f"{label}:"]
            written[k] = "c0"
            budget -= 2
        else:  # nop
            body.append("    nop")
            budget -= 1

    if frame:
        body += ["    move sp gp"]
    body.append("    jr ra")
    lines += body
    if used_blob:
        lines += ["msg:", f"    .bytes {_QUICK_BLOB}"]
    return "\n".join(lines) + "\n"


def generate_program(seed: int, max_instructions: int = 12) -> Program:
    return parse_program(generate_source(seed, max_instructions))


# -- mutants: one small edit of a generated program ---------------------------

_MUTANT_REGS = ("t0", "t1", "t2", "t3", "v0", "v1", "a0", "a1", "sp", "gp", "fp", "zero")
_REGISTER = re.compile(r"\b(" + "|".join(_MUTANT_REGS) + r")\b")
_IMMEDIATE = re.compile(r"(?<![\w$])-?\d+\b")


def mutate_source(source: str, seed: int) -> str:
    """``source`` with one instruction line edited: a register swapped for
    another, an immediate or offset bumped, or the line duplicated.  The
    source comes back unchanged when the drawn edit finds nothing to edit."""
    rng = random.Random(f"mutate/{seed}")
    lines = source.split("\n")
    code = [i for i, line in enumerate(lines)
            if line.startswith("    ") and not line.lstrip().startswith(".")]
    kind = rng.choice(("register", "immediate", "duplicate"))
    i = rng.choice(code)
    if kind == "duplicate":
        lines.insert(i + 1, lines[i])
        return "\n".join(lines)
    line = lines[i]
    hits = list((_REGISTER if kind == "register" else _IMMEDIATE).finditer(line))
    if not hits:
        return source
    m = rng.choice(hits)
    if kind == "register":
        new = rng.choice([r for r in _MUTANT_REGS if r != m.group()])
    else:
        new = str(int(m.group()) + rng.choice((-4, -1, 1, 4)))
    lines[i] = line[:m.start()] + new + line[m.end():]
    return "\n".join(lines)
