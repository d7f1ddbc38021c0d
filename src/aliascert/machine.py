"""Reference interpreter of the machine-code semantics on exact words.

The single-step function below is the executable form of the instruction
semantics table: a state-to-state transformation over 32 registers, a
sparse word memory, and the program counter.  Bytes sit little-endian
within their word; a memory-mapped device region at a fixed address
turns stores into console output and a halt signal.  Whole-program runs
go through the interpreter loop in `_engine`, whose clean machine is its
aliasing machine with every calculation tagged alike; ``step`` is the
independent single-step reference it is tested against.  Every run, by the loop or
by ``step``, shares the memory map and the outcome record defined here,
so that any two runs can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import Instruction, Program, RA, SP, ZERO

M32 = 0xFFFFFFFF

# the device region: a store at PRINT_OFFSET prints its low byte, a store
# at HALT_OFFSET halts, any other store is ignored and any load faults
DEVICE_BASE = 0xB0000000
DEVICE_SIZE = 0x100
PRINT_OFFSET = 0x00
HALT_OFFSET = 0x10
DEFAULT_STACK_BASE = 0x7FFFF000  # the initial sp of every run
RETURN_SENTINEL = 0xFFFFFFFC  # initial ra; jumping here ends the run

DEFAULT_FUEL = 1_000_000


@dataclass
class Fault:
    kind: str
    pc: int
    addr: int

    def __str__(self) -> str:
        return f"{self.kind} at pc=0x{self.pc:08x}, address 0x{self.addr:08x}"


@dataclass
class RunOutcome:
    regs: list[int]                 # final 32-bit words, tags dropped
    output: bytes
    steps: int
    faults: list[Fault] = field(default_factory=list)
    error: str | None = None
    error_pc: int | None = None
    exit_reason: str | None = None  # "halt-device" | "returned" | None

    @property
    def ok(self) -> bool:
        return self.error is None


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
        if DEVICE_BASE <= ea < DEVICE_BASE + DEVICE_SIZE:
            off = ea - DEVICE_BASE
            if off == PRINT_OFFSET:
                st.output.append(st.reg(i.rd) & 0xFF)
            elif off == HALT_OFFSET:
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
        if DEVICE_BASE <= ea < DEVICE_BASE + DEVICE_SIZE:
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


def run(program: Program, fuel: int = DEFAULT_FUEL) -> RunOutcome:
    """Run on the clean machine until halt, return, error, or fuel out."""
    from . import _engine

    return _engine.run_clean_image(_engine.build_image(program), fuel)


def run_by_steps(program: Program, fuel: int = DEFAULT_FUEL) -> RunOutcome:
    """Slow clean run driven by :func:`step`; cross-checks the interpreter."""
    st = MachineState(pc=program.entry_address())
    st.regs[SP] = DEFAULT_STACK_BASE
    st.regs[RA] = RETURN_SENTINEL
    for name, blob in program.blobs.items():
        for a, byte in enumerate(blob.data, program.labels[name]):
            st.mem[a & ~3] = st.mem.get(a & ~3, 0) | byte << 8 * (a & 3)
    steps = 0
    error = error_pc = None
    exit_reason = None
    resolve = program.resolve
    while not st.halted:
        if st.pc == RETURN_SENTINEL:
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
    if st.halted:
        exit_reason = "halt-device"
    return RunOutcome(regs=list(st.regs), output=bytes(st.output), steps=steps,
                      error=error, error_pc=error_pc, exit_reason=exit_reason)
