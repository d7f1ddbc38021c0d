"""Seeded generator of small certifiable programs.

Builds straight-line bodies (with optional annotation-neutral forward
branches) while tracking a shadow of the certifier's state, so emitted
programs certify and run cleanly by construction.  Used by the
differential test harness and the benchmark.
"""

from __future__ import annotations

import random

from .frontend import parse_program
from .isa import Program

_SCRATCH = ["t0", "t1", "t2", "t3", "v0", "v1", "a0", "a1"]
_FRAMES = [8, 16, 32]
_BLOB = '"abcdef\\0"'


def generate_source(seed: int, max_instructions: int = 12) -> str:
    """One random certifiable program of at most ``max_instructions``."""
    rng = random.Random(seed)
    lines = ["#@ entry main",
             "#@ assume main: sp*=c^[0], ra=u^0",
             "main:"]
    body: list[str] = []
    used_blob = False

    frame = rng.choice([0] + _FRAMES)
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
            dst = rng.choice([r for r in _SCRATCH if r != string_reg])
            body.append(f"    lw {dst} {k}(sp)")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "mov":
            dst = rng.choice([r for r in _SCRATCH if r != string_reg])
            body.append(f"    move {dst} zero")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "arith":
            srcs = [r for r in plain if r != "zero"]
            if not srcs:
                continue
            src = rng.choice(srcs)
            dst = rng.choice([r for r in _SCRATCH if r not in (string_reg,)])
            body.append(f"    addiu {dst} {src} {rng.randrange(-8, 9)}")
            if dst not in plain:
                plain.append(dst)
            budget -= 1
        elif op == "newstr":
            fresh = [r for r in _SCRATCH if r not in plain]
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
            dst = rng.choice([r for r in _SCRATCH if r != string_reg])
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
        lines += ["msg:", f"    .bytes {_BLOB}"]
    return "\n".join(lines) + "\n"


def generate_program(seed: int, max_instructions: int = 12) -> Program:
    return parse_program(generate_source(seed, max_instructions))
