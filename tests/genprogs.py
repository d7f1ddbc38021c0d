"""Deterministic program generators for the scale and report tests.

Every generated program is SAFE or UNSAFE by construction, and every one
of its instructions is reachable.
"""

from __future__ import annotations

import random

_SCRATCH = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "v0", "a1", "a2", "a3")
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
    regs = _SCRATCH[:k]
    lines = ["#@ entry main", "#@ assume main: ra=u^0", "main:"]
    lines += [f"    li {r} table" for r in regs]
    lines += [f"    lb a0 {1 + i % 2}({r})" for i, r in enumerate(regs)]
    if unsafe:
        lines.append(f"    lb a0 {3 + k % 5}({regs[k // 2]})")
    lines += ["    jr ra", "table:", '    .bytes "xy\\0"']
    return "\n".join(lines) + "\n"
