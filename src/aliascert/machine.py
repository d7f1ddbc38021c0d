"""Reference interpreter of the machine-code semantics on exact words.

The single-step function below is the executable form of the instruction
semantics table: a state-to-state transformation over 32 registers, a
sparse word memory, and the program counter.  Bytes sit little-endian
within their word; a memory-mapped device region turns stores into
console output and a halt signal.  Whole-program runs go through the
interpreter loop in `_engine`, whose clean machine is its aliasing
machine with every calculation tagged alike; ``step`` is the independent
single-step reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import FORMATS, Instruction, Program, RA, SP, ZERO
from .simdefs import (
    DEFAULT_FUEL,
    DEFAULT_STACK_BASE,
    DeviceConfig,
    Image,
    M32,
    OP_IDS,
    RETURN_SENTINEL,
    RunOutcome,
)


class MachineError(Exception):
    def __init__(self, kind: str, pc: int, detail: str = ""):
        super().__init__(f"{kind} at pc=0x{pc:08x}" + (f": {detail}" if detail else ""))
        self.kind = kind
        self.pc = pc


@dataclass
class MachineState:
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    mem: dict[int, int] = field(default_factory=dict)
    pc: int = 0
    output: bytearray = field(default_factory=bytearray)
    halted: bool = False
    device: DeviceConfig = DeviceConfig()

    def reg(self, r: int) -> int:
        return 0 if r == ZERO else self.regs[r]

    def set_reg(self, r: int, v: int) -> None:
        if r != ZERO:
            self.regs[r] = v & M32


def step(st: MachineState, i: Instruction, resolve=None) -> MachineState:
    """Apply one instruction in place and return the state.

    ``resolve`` maps symbolic targets to addresses; resolved programs do
    not need it.  Raises :class:`MachineError` on unaligned word access,
    reads of never-written memory, or device reads.
    """
    if st.halted:
        raise MachineError("Halted", st.pc, "machine has halted")
    res = resolve or (lambda t: t)
    op = i.op
    pc = st.pc

    if op in ("sw", "sb"):
        ea = (st.reg(i.rs) + i.imm) & M32
        if st.device.contains(ea):
            off = ea - st.device.base
            if off == st.device.print_offset:
                st.output.append(st.reg(i.rd) & 0xFF)
            elif off == st.device.halt_offset:
                st.halted = True
            st.pc = pc + 4
            return st
        if op == "sw":
            if ea & 3:
                raise MachineError("UnalignedWordAccess", pc, hex(ea))
            st.mem[ea] = st.reg(i.rd)
        else:
            w, lane = ea & ~3, ea & 3
            cur = st.mem.get(w, 0)
            st.mem[w] = (cur & ~(0xFF << (8 * lane))) | ((st.reg(i.rd) & 0xFF) << (8 * lane))
        st.pc = pc + 4
        return st
    if op in ("lw", "lb"):
        ea = (st.reg(i.rs) + i.imm) & M32
        if st.device.contains(ea):
            raise MachineError("DeviceReadUnsupported", pc, hex(ea))
        if op == "lw":
            if ea & 3:
                raise MachineError("UnalignedWordAccess", pc, hex(ea))
            if ea not in st.mem:
                raise MachineError("UninitializedRead", pc, hex(ea))
            st.set_reg(i.rd, st.mem[ea])
        else:
            w = ea & ~3
            if w not in st.mem:
                raise MachineError("UninitializedRead", pc, hex(ea))
            st.set_reg(i.rd, (st.mem[w] >> (8 * (ea & 3))) & 0xFF)
        st.pc = pc + 4
        return st
    if op == "move":
        st.set_reg(i.rd, st.reg(i.rs))
    elif op == "li":
        st.set_reg(i.rd, res(i.target))
    elif op == "addiu":
        st.set_reg(i.rd, st.reg(i.rs) + i.imm)
    elif op == "addu":
        st.set_reg(i.rd, st.reg(i.rs) + st.reg(i.rt))
    elif op == "nand":
        st.set_reg(i.rd, ~(st.reg(i.rs) & st.reg(i.rt)))
    elif op == "beq":
        st.pc = res(i.target) if st.reg(i.rd) == st.reg(i.rs) else pc + 4
        return st
    elif op == "bnez":
        st.pc = res(i.target) if st.reg(i.rd) != 0 else pc + 4
        return st
    elif op == "j":
        st.pc = res(i.target)
        return st
    elif op == "jal":
        st.set_reg(RA, pc + 4)
        st.pc = res(i.target)
        return st
    elif op == "jr":
        st.pc = st.reg(i.rd)
        return st
    elif op != "nop":
        raise MachineError("IllegalInstruction", pc, op)
    st.pc = pc + 4
    return st


def build_image(program: Program, entry: str | None = None,
                device: DeviceConfig = DeviceConfig()) -> Image:
    """Decode a program into the flat form the interpreter consumes: each
    instruction's operands in ``FORMATS`` order, ``mem`` as ``imm, rs``,
    targets resolved, padded with 0 to three operands."""
    label = entry or program.entry_label()
    if label is None:
        raise ValueError("program has no entry pragma and no entry was given")
    if label not in program.labels:
        raise ValueError(f"entry label {label!r} is not defined")
    code = []
    for i in program.instructions:
        ops = [OP_IDS[i.op]]
        for f in FORMATS[i.op]:
            if f == "mem":
                ops += (i.imm, i.rs)
            elif f == "target":
                ops.append(program.resolve(i.target))
            else:
                ops.append(getattr(i, f))
        code.append((*ops, *(0,) * (4 - len(ops))))
    blobs = tuple(
        (program.labels[name], blob.data, blob.step, blob.byte_size, blob.init)
        for name, blob in program.blobs.items()
    )
    return Image(base=program.base, code=tuple(code), blobs=blobs,
                 entry_addr=program.labels[label], device=device)


def run(program: Program, fuel: int = DEFAULT_FUEL, entry: str | None = None,
        device: DeviceConfig = DeviceConfig()) -> RunOutcome:
    """Run on the clean machine until halt, return, error, or fuel out."""
    from ._engine import run_clean_image

    return run_clean_image(build_image(program, entry, device), fuel)


def run_by_steps(program: Program, fuel: int = DEFAULT_FUEL, entry: str | None = None,
                 device: DeviceConfig = DeviceConfig()) -> RunOutcome:
    """Slow clean run driven by :func:`step`; cross-checks the interpreter."""
    image = build_image(program, entry, device)
    st = MachineState(pc=image.entry_addr, device=device)
    st.regs[SP] = DEFAULT_STACK_BASE
    st.regs[RA] = RETURN_SENTINEL
    for addr, data, _s, _z, _i in image.blobs:
        for k, byte in enumerate(data):
            w = (addr + k) & ~3
            st.mem[w] = st.mem.get(w, 0) | (byte << (8 * ((addr + k) & 3)))
    steps = 0
    error = error_pc = None
    exit_reason = None
    resolve = program.resolve
    while not st.halted:
        if st.pc == RETURN_SENTINEL:
            st.halted = True
            exit_reason = "returned"
            break
        if steps >= fuel:
            error, error_pc = "FuelExhausted", st.pc
            break
        instr = program.instruction_at(st.pc)
        if instr is None:
            error, error_pc = "BadProgramCounter", st.pc
            break
        steps += 1
        try:
            step(st, instr, resolve)
        except MachineError as e:
            error, error_pc = e.kind, e.pc
            break
    if st.halted and exit_reason is None:
        exit_reason = "halt-device"
    return RunOutcome(regs=list(st.regs), output=bytes(st.output), halted=st.halted,
                      steps=steps, error=error, error_pc=error_pc,
                      exit_reason=exit_reason)
