"""Deterministic program generators for the scale and report tests.

Every generated program is SAFE or UNSAFE by construction, and every one
of its instructions is reachable.
"""

from __future__ import annotations

import random

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
