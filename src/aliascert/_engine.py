"""The interpreter: clean and aliasing runs over a decoded program image.

`run_clean_image` executes exact 32-bit semantics over a sparse word
memory.  `run_alias_image` keys memory by (tag, address) pairs so that
differently calculated aliases of one address select different cells,
which is the hardware-aliasing model under test; its tags are the
`_salt` calculus inlined into the loop.  `machine.step` is the
independent single-step reference both runs are tested against.
Callers look the two functions up in this module at call time, so a
profiler can wrap them here.
"""

from __future__ import annotations

from ._salt import T_ADDIU, T_ADDU, T_EA, T_INIT, T_JAL, T_LI, T_NAND, pack, tag
from .simdefs import (
    M32,
    OP_ADDIU,
    OP_ADDU,
    OP_BEQ,
    OP_BNEZ,
    OP_J,
    OP_JAL,
    OP_JR,
    OP_LB,
    OP_LI,
    OP_LW,
    OP_MOVE,
    OP_NAND,
    OP_NOP,
    OP_SB,
    OP_SW,
    Fault,
    Image,
    RETURN_SENTINEL,
    RunOutcome,
)

BACKEND = "pure"  # recorded with benchmark runs

RA = 31
SP = 29


def _preload_clean(image: Image) -> dict[int, int]:
    mem: dict[int, int] = {}
    for addr, data, _step, _size, _init in image.blobs:
        for k, byte in enumerate(data):
            a = addr + k
            w = a & ~3
            mem[w] = mem.get(w, 0) | (byte << (8 * (a & 3)))
    return mem


def run_clean_image(image: Image, fuel: int) -> RunOutcome:
    regs = [0] * 32
    regs[SP] = image.stack_base
    regs[RA] = RETURN_SENTINEL
    mem = _preload_clean(image)
    out = bytearray()
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

        if op == OP_SW or op == OP_SB:
            ea = (regs[c] + b) & M32
            if dev.base <= ea < dev.base + dev.size:
                off = ea - dev.base
                if off == dev.print_offset:
                    out.append(regs[a] & 0xFF)
                elif off == dev.halt_offset:
                    halted, exit_reason = True, "halt-device"
                    break
                pc += 4
                continue
            if op == OP_SW:
                if ea & 3:
                    error, error_pc = "UnalignedWordAccess", pc
                    break
                mem[ea] = regs[a]
            else:
                w, lane = ea & ~3, ea & 3
                cur = mem.get(w, 0)
                mem[w] = (cur & ~(0xFF << (8 * lane))) | ((regs[a] & 0xFF) << (8 * lane))
            pc += 4
            continue
        if op == OP_LW or op == OP_LB:
            ea = (regs[c] + b) & M32
            if dev.base <= ea < dev.base + dev.size:
                error, error_pc = "DeviceReadUnsupported", pc
                break
            if op == OP_LW:
                if ea & 3:
                    error, error_pc = "UnalignedWordAccess", pc
                    break
                if ea not in mem:
                    error, error_pc = "UninitializedRead", pc
                    break
                v = mem[ea]
            else:
                w = ea & ~3
                if w not in mem:
                    error, error_pc = "UninitializedRead", pc
                    break
                v = (mem[w] >> (8 * (ea & 3))) & 0xFF
            if a != 0:
                regs[a] = v
            pc += 4
            continue
        if op == OP_MOVE:
            if a != 0:
                regs[a] = regs[b]
            pc += 4
            continue
        if op == OP_LI:
            if a != 0:
                regs[a] = b & M32
            pc += 4
            continue
        if op == OP_ADDIU:
            if a != 0:
                regs[a] = (regs[b] + c) & M32
            pc += 4
            continue
        if op == OP_ADDU:
            if a != 0:
                regs[a] = (regs[b] + regs[c]) & M32
            pc += 4
            continue
        if op == OP_NAND:
            if a != 0:
                regs[a] = ~(regs[b] & regs[c]) & M32
            pc += 4
            continue
        if op == OP_BEQ:
            pc = c if regs[a] == regs[b] else pc + 4
            continue
        if op == OP_BNEZ:
            pc = b if regs[a] != 0 else pc + 4
            continue
        if op == OP_J:
            pc = a
            continue
        if op == OP_JAL:
            regs[RA] = pc + 4
            pc = a
            continue
        if op == OP_JR:
            pc = regs[a]
            continue
        pc += 4  # nop

    return RunOutcome(regs=regs, output=bytes(out), halted=halted, steps=steps,
                      error=error, error_pc=error_pc, exit_reason=exit_reason)


# --------------------------------------------------------------------------
# aliasing interpreter


def _ea(seed: int, hi: int, lo: int, imm: int) -> int:
    return tag(seed, T_EA, pack(hi, lo), imm)


def _preload_alias(image: Image, seed: int):
    """Initialized data is modeled as written earlier along its canonical
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

    for addr, data, step, _size, init in image.blobs:
        if not init:
            continue
        base_hi = tag(seed, T_LI, addr)
        # array keying: unique offsets from the introduced base
        for k in range(len(data)):
            if (addr + k) & 3 == 0 and k + 4 <= len(data):
                put_word(_ea(seed, base_hi, addr, k), addr + k,
                         int.from_bytes(data[k:k + 4], "little"))
            put_byte(_ea(seed, base_hi, addr, k), addr + k, data[k])
        # string keying: constant steps from the base, offsets within a step
        p_hi, p_lo, off = base_hi, addr, 0
        while off < len(data):
            span = min(step, len(data) - off)
            for j in range(span):
                if (p_lo + j) & 3 == 0 and j + 4 <= span:
                    put_word(_ea(seed, p_hi, p_lo, j), p_lo + j,
                             int.from_bytes(data[off + j:off + j + 4], "little"))
                put_byte(_ea(seed, p_hi, p_lo, j), p_lo + j, data[off + j])
            nxt_lo = (p_lo + step) & M32
            p_hi = tag(seed, T_ADDIU, pack(p_hi, p_lo), step)
            p_lo = nxt_lo
            off += step
    return mem, locount


def run_alias_image(image: Image, fuel: int, seed: int) -> RunOutcome:
    hi = [0] * 32
    lo = [0] * 32
    for i in range(1, 32):
        hi[i] = tag(seed, T_INIT, i)
    lo[SP] = image.stack_base
    lo[RA] = RETURN_SENTINEL
    mem, locount = _preload_alias(image, seed)
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

        if op == OP_SW or op == OP_SB:
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
            ea_hi = _ea(seed, hi[c], lo[c], b)
            if op == OP_SW:
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
        if op == OP_LW or op == OP_LB:
            ea_lo = (lo[c] + b) & M32
            if dev.base <= ea_lo < dev.base + dev.size:
                error, error_pc = "DeviceReadUnsupported", pc
                break
            ea_hi = _ea(seed, hi[c], lo[c], b)
            w = ea_lo & ~3
            if op == OP_LW:
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
            if op == OP_LW:
                vhi, vlo = cell
            else:
                vhi, vlo = 0, (cell[1] >> (8 * (ea_lo & 3))) & 0xFF
            if a != 0:
                hi[a], lo[a] = vhi, vlo
            pc += 4
            continue
        if op == OP_MOVE:
            if a != 0:
                hi[a], lo[a] = hi[b], lo[b]
            pc += 4
            continue
        if op == OP_LI:
            if a != 0:
                hi[a], lo[a] = tag(seed, T_LI, b & M32), b & M32
            pc += 4
            continue
        if op == OP_ADDIU:
            if a != 0:
                hi[a], lo[a] = tag(seed, T_ADDIU, pack(hi[b], lo[b]), c), (lo[b] + c) & M32
            pc += 4
            continue
        if op == OP_ADDU:
            if a != 0:
                hi[a], lo[a] = (tag(seed, T_ADDU, pack(hi[b], lo[b]), pack(hi[c], lo[c])),
                                (lo[b] + lo[c]) & M32)
            pc += 4
            continue
        if op == OP_NAND:
            if a != 0:
                hi[a], lo[a] = (tag(seed, T_NAND, pack(hi[b], lo[b]), pack(hi[c], lo[c])),
                                ~(lo[b] & lo[c]) & M32)
            pc += 4
            continue
        if op == OP_BEQ:
            pc = c if lo[a] == lo[b] else pc + 4  # aliases test as equal
            continue
        if op == OP_BNEZ:
            pc = b if lo[a] != 0 else pc + 4
            continue
        if op == OP_J:
            pc = a
            continue
        if op == OP_JAL:
            hi[RA], lo[RA] = tag(seed, T_JAL, pc + 4), pc + 4
            pc = a
            continue
        if op == OP_JR:
            pc = lo[a]
            continue
        pc += 4  # nop

    return RunOutcome(regs=lo, output=bytes(out), halted=halted, steps=steps,
                      faults=faults, error=error, error_pc=error_pc,
                      exit_reason=exit_reason)
