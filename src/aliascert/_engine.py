"""The interpreter: one loop over a decoded program image, three salts.

The loop dispatches on each instruction's mnemonic, the first field of
its decoded form (`machine.build_image`).

Memory is keyed by (tag, address) pairs, the tags coming from the
`_salt` calculus, so that differently calculated aliases of one address
select different cells: the hardware-aliasing model under test
(`run_alias_image`).  The clean machine is the same loop with a salt
that tags every calculation 0 (`run_clean_image`): every key is then
(0, address), every alias of an address hits its one cell, and a
missing key means no cell at that word, so the run has exact 32-bit
semantics and no alias fault can occur.  The two machines differ in
one more way: the clean one preloads every data blob, the aliasing one
only the initialized blobs.  `machine.step` is the independent
single-step reference both runs are tested against.

A seed's tags stand for how each value was calculated, so a sweep over
seeds need not run the loop once per seed.  `run_symbolic_image` runs
it once with a salt that hands out one id per distinct calculation
(global value numbering by hash-consing); a seed's run equals that run
exactly when the seed's tags are distinct among the effective-address
calculations that key one word, since memory keys are the only place a
tag is observed.  `run_alias_image` given that run checks this for its
seed over the few calculations concerned, decoded once by the symbolic
run, and runs the seeded loop only on a collision.  A symbolic run that
keys every word by one calculation and preloads every blob is also the
clean run, failed or not, so a sweep is one symbolic run, plus
a clean run only when a word has two calculations or a blob is
``noinit`` (`aliasing.diff_runs`).  Callers look the entry points up in
this module at call time, so a profiler can wrap them here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _salt
from ._salt import (M64, T_ADDIU, T_ADDU, T_EA, T_INIT, T_JAL, T_LI, T_NAND, fold, pack,
                    root, tag)
from .isa import RA, SP
from .simdefs import DEFAULT_STACK_BASE, M32, RETURN_SENTINEL, Fault, Image, RunOutcome

BACKEND = "pure"  # recorded with benchmark runs


def _zero_tag(seed: int, domain: int, *vals: int) -> int:
    return 0


def _preload(blobs, seed: int, salt):
    """Preloaded data is modeled as written earlier along its canonical
    access chains: direct offsets from the load-immediate base for arrays,
    and repeated stepping for strings."""
    mem: dict[tuple[int, int], tuple[int, int]] = {}
    locount: dict[int, int] = {}

    def put_byte(t: int, a: int, byte: int):
        key = (t, a & ~3)
        if key not in mem:
            locount[a & ~3] = locount.get(a & ~3, 0) + 1
            cur = (0, 0)
        else:
            cur = mem[key]
        lane = a & 3
        mem[key] = (0, (cur[1] & ~(0xFF << (8 * lane))) | (byte << (8 * lane)))

    def put_word(t: int, a: int, word: int):
        key = (t, a)
        if key not in mem:
            locount[a] = locount.get(a, 0) + 1
        mem[key] = (0, word)

    def ea(hi: int, lo: int, imm: int) -> int:
        return salt(seed, T_EA, pack(hi, lo), imm)

    for addr, data, step, _init in blobs:
        base_hi = salt(seed, T_LI, addr)
        # array keying: unique offsets from the introduced base
        for k in range(len(data)):
            if (addr + k) & 3 == 0 and k + 4 <= len(data):
                put_word(ea(base_hi, addr, k), addr + k,
                         int.from_bytes(data[k:k + 4], "little"))
            put_byte(ea(base_hi, addr, k), addr + k, data[k])
        # string keying: constant steps from the base, offsets within a step
        p_hi, p_lo, off = base_hi, addr, 0
        while off < len(data):
            span = min(step, len(data) - off)
            for j in range(span):
                if (p_lo + j) & 3 == 0 and j + 4 <= span:
                    put_word(ea(p_hi, p_lo, j), p_lo + j,
                             int.from_bytes(data[off + j:off + j + 4], "little"))
                put_byte(ea(p_hi, p_lo, j), p_lo + j, data[off + j])
            nxt_lo = (p_lo + step) & M32
            p_hi = salt(seed, T_ADDIU, pack(p_hi, p_lo), step)
            p_lo = nxt_lo
            off += step
    return mem, locount


def run_clean_image(image: Image, fuel: int) -> RunOutcome:
    """The clean machine: one tag for every calculation, all data preloaded."""
    return _run(image, fuel, 0, _zero_tag, image.blobs)


def run_alias_image(image: Image, fuel: int, seed: int,
                    symbolic: SymbolicRun | None = None) -> RunOutcome:
    """The aliasing machine: seeded tags, ``noinit`` data left unwritten.

    Given ``symbolic``, the symbolic run of the same ``image`` and
    ``fuel``, returns its outcome when ``seed`` keys no word by two
    colliding tags, and runs the seeded loop otherwise."""
    if symbolic is not None and _collision_free(symbolic, seed):
        return symbolic.outcome
    return _run(image, fuel, seed, tag, [b for b in image.blobs if b[3]])


# The inputs `_run` passes with each tag domain: how many, and how many
# of them lead with a salted word, pack(tag, value).
_INPUTS = {T_LI: (1, 0), T_JAL: (1, 0), T_INIT: (1, 0),
           T_ADDIU: (2, 1), T_EA: (2, 1), T_ADDU: (2, 2), T_NAND: (2, 2)}


@dataclass(frozen=True)
class SymbolicRun:
    """The aliasing machine run once under calculation ids, kept only as
    far as a seed's collision check needs it.

    ``calcs`` lists every calculation that ``groups`` reaches through its
    inputs, oldest first, as five flat fields ``domain, p, x, q, y`` (no
    tuple per calculation keeps it small): the tag of the calculation at
    position n is ``fold(fold(root(seed, domain), t[p] << 32 | x),
    t[q] << 32 | y)``, the second fold only when ``q`` is not None,
    where ``t[0]`` is the literal tag 0 and ``t[n]`` the tag at position
    n, counted from 1.  An unsalted input is ``x`` or ``y`` whole with
    position 0.  Each group holds the positions of the effective
    addresses, two or more, that key one word; with no group, every word
    is keyed by one calculation."""

    outcome: RunOutcome
    calcs: list[int | None]
    groups: tuple[tuple[int, ...], ...]


def run_symbolic_image(image: Image, fuel: int) -> SymbolicRun:
    """The aliasing machine with one tag per distinct calculation: ids 1,
    2, 3, ... in creation order, so no two calculations collide."""
    outcome, ids = _run_interned(image, fuel)
    # every effective address keys or probes a cell of its word, lo + imm
    words: dict[int, list[int]] = {}
    for k, i in ids.items():
        if k & 0xFF == T_EA:
            words.setdefault((((k >> 8) & M32) + (k >> 72)) & M32 & ~3, []).append(i)
    groups = [g for g in words.values() if len(g) > 1]
    del words  # freed before the closure's tables grow
    # the inputs of a calculation are older than it, so one walk down
    # from the newest id collects the closure, however long the chains
    pos = dict.fromkeys(i for g in groups for i in g)
    for k, i in reversed(ids.items()):
        if i in pos:
            salted = _INPUTS[k & 0xFF][1]
            if salted:
                pos[(k >> 40) & M32] = None
            if salted == 2:
                pos[k >> 104] = None
    # then one walk up numbers the closure in place, after the literal 0
    pos[0] = 0
    calcs = []
    for k, i in ids.items():
        if i in pos:
            domain = k & 0xFF
            n, salted = _INPUTS[domain]
            a, b = (k >> 8) & M64, k >> 72
            p, x = (pos[a >> 32], a & M32) if salted else (0, a)
            q, y = (pos[b >> 32], b & M32) if salted == 2 else (0 if n == 2 else None, b)
            calcs += domain, p, x, q, y
            pos[i] = len(calcs) // 5
    return SymbolicRun(outcome, calcs,
                       tuple(tuple(pos[i] for i in g) for g in groups))


def _run_interned(image: Image, fuel: int) -> tuple[RunOutcome, dict[int, int]]:
    """The symbolic run, and its table from the key of each calculation
    to its id, in creation order.  A key holds the domain in bits 0-7,
    the first input in bits 8-71 and the second, if any, in bits 72-135,
    so a salted input's tag starts at bit 40 or 104.  One int per key
    keeps the table small."""
    ids: dict[int, int] = {}

    def intern(seed: int, domain: int, a: int, b: int = 0) -> int:
        key = ((b & M64) << 64 | (a & M64)) << 8 | domain
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(ids) + 1
        return i

    outcome = _run(image, fuel, 0, intern, [b for b in image.blobs if b[3]])
    return outcome, ids


def _seed_tags(symbolic: SymbolicRun, seed: int) -> list[int]:
    """``seed``'s tag of every calculation of ``symbolic.calcs`` by
    position, after the literal tag 0, evaluated from the oldest up with
    one root per domain."""
    roots = {d: root(seed, d) for d in _INPUTS}
    mask = _salt.TAG_MASK
    t = [0]
    it = iter(symbolic.calcs)
    for d, p, x, q, y in zip(it, it, it, it, it):
        h = fold(roots[d], t[p] << 32 | x)
        if q is not None:
            h = fold(h, t[q] << 32 | y)
        t.append(h & mask)
    return t


def _collision_free(symbolic: SymbolicRun, seed: int) -> bool:
    """Whether ``seed`` tags the calculations of every group distinctly."""
    t = _seed_tags(symbolic, seed)
    return all(len({t[i] for i in g}) == len(g) for g in symbolic.groups)


def _run(image: Image, fuel: int, seed: int, salt, blobs) -> RunOutcome:
    """Run ``image`` with ``salt(seed, domain, *inputs)`` tagging every
    calculation and the data of ``blobs`` preloaded."""
    if fuel < 1:
        raise ValueError(f"fuel must be at least 1, got {fuel}")
    hi = [0] * 32
    lo = [0] * 32
    for i in range(1, 32):
        hi[i] = salt(seed, T_INIT, i)
    lo[SP] = DEFAULT_STACK_BASE
    lo[RA] = RETURN_SENTINEL
    mem, locount = _preload(blobs, seed, salt)
    out = bytearray()
    faults: list[Fault] = []
    dev = image.device
    base, end = image.base, image.code_end
    code = image.code
    pc = image.entry_addr
    steps = 0
    halted = False
    exit_reason = None
    error = error_pc = None

    while True:
        if pc == RETURN_SENTINEL:
            halted, exit_reason = True, "returned"
            break
        if steps >= fuel:
            error, error_pc = "FuelExhausted", pc
            break
        if pc < base or pc >= end or pc & 3:
            error, error_pc = "BadProgramCounter", pc
            break
        op, a, b, c = code[(pc - base) >> 2]
        steps += 1

        if op == "sw" or op == "sb":
            ea_lo = (lo[c] + b) & M32
            if dev.base <= ea_lo < dev.base + dev.size:
                off = ea_lo - dev.base  # devices decode the value lines only
                if off == dev.print_offset:
                    out.append(lo[a] & 0xFF)
                elif off == dev.halt_offset:
                    halted, exit_reason = True, "halt-device"
                    break
                pc += 4
                continue
            ea_hi = salt(seed, T_EA, pack(hi[c], lo[c]), b)
            if op == "sw":
                if ea_lo & 3:
                    error, error_pc = "UnalignedWordAccess", pc
                    break
                key = (ea_hi, ea_lo)
                if key not in mem:
                    locount[ea_lo] = locount.get(ea_lo, 0) + 1
                mem[key] = (hi[a], lo[a])
            else:
                w, lane = ea_lo & ~3, ea_lo & 3
                key = (ea_hi, w)
                if key not in mem:
                    locount[w] = locount.get(w, 0) + 1
                    cur = (0, 0)
                else:
                    cur = mem[key]
                mem[key] = (0, (cur[1] & ~(0xFF << (8 * lane))) | ((lo[a] & 0xFF) << (8 * lane)))
            pc += 4
            continue
        if op == "lw" or op == "lb":
            ea_lo = (lo[c] + b) & M32
            if dev.base <= ea_lo < dev.base + dev.size:
                error, error_pc = "DeviceReadUnsupported", pc
                break
            ea_hi = salt(seed, T_EA, pack(hi[c], lo[c]), b)
            w = ea_lo & ~3
            if op == "lw":
                if ea_lo & 3:
                    error, error_pc = "UnalignedWordAccess", pc
                    break
                key = (ea_hi, ea_lo)
            else:
                key = (ea_hi, w)
            cell = mem.get(key)
            if cell is None:
                if locount.get(w, 0) > 0:
                    faults.append(Fault("AliasFault", pc, ea_lo))
                    error, error_pc = "AliasFault", pc
                else:
                    error, error_pc = "UninitializedRead", pc
                break
            if op == "lw":
                vhi, vlo = cell
            else:
                vhi, vlo = 0, (cell[1] >> (8 * (ea_lo & 3))) & 0xFF
            if a != 0:
                hi[a], lo[a] = vhi, vlo
            pc += 4
            continue
        if op == "move":
            if a != 0:
                hi[a], lo[a] = hi[b], lo[b]
            pc += 4
            continue
        if op == "li":
            if a != 0:
                hi[a], lo[a] = salt(seed, T_LI, b & M32), b & M32
            pc += 4
            continue
        if op == "addiu":
            if a != 0:
                hi[a], lo[a] = salt(seed, T_ADDIU, pack(hi[b], lo[b]), c), (lo[b] + c) & M32
            pc += 4
            continue
        if op == "addu":
            if a != 0:
                hi[a], lo[a] = (salt(seed, T_ADDU, pack(hi[b], lo[b]), pack(hi[c], lo[c])),
                                (lo[b] + lo[c]) & M32)
            pc += 4
            continue
        if op == "nand":
            if a != 0:
                hi[a], lo[a] = (salt(seed, T_NAND, pack(hi[b], lo[b]), pack(hi[c], lo[c])),
                                ~(lo[b] & lo[c]) & M32)
            pc += 4
            continue
        if op == "beq":
            pc = c if lo[a] == lo[b] else pc + 4  # aliases test as equal
            continue
        if op == "bnez":
            pc = b if lo[a] != 0 else pc + 4
            continue
        if op == "j":
            pc = a
            continue
        if op == "jal":
            hi[RA], lo[RA] = salt(seed, T_JAL, pc + 4), pc + 4
            pc = a
            continue
        if op == "jr":
            pc = lo[a]
            continue
        pc += 4  # nop

    return RunOutcome(regs=lo, output=bytes(out), halted=halted, steps=steps,
                      faults=faults, error=error, error_pc=error_pc,
                      exit_reason=exit_reason)
