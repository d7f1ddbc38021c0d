"""Shared definitions for the interpreter and its single-step reference.

The clean and the aliasing run are one loop in `_engine` with two salts;
both consume the same decoded program image and produce the same outcome
record, so they can be compared with each other and with the single-step
reference in `machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

M32 = 0xFFFFFFFF

DEFAULT_DEVICE_BASE = 0xB0000000
DEFAULT_DEVICE_SIZE = 0x100
DEFAULT_PRINT_OFFSET = 0x00
DEFAULT_HALT_OFFSET = 0x10
DEFAULT_STACK_BASE = 0x7FFFF000
RETURN_SENTINEL = 0xFFFFFFFC  # initial ra; jumping here ends the run

DEFAULT_FUEL = 1_000_000

# opcode ids for the decoded image
OP_SW, OP_LW, OP_SB, OP_LB = 0, 1, 2, 3
OP_MOVE, OP_LI, OP_ADDIU, OP_ADDU, OP_NAND = 4, 5, 6, 7, 8
OP_BEQ, OP_BNEZ, OP_J, OP_JAL, OP_JR, OP_NOP = 9, 10, 11, 12, 13, 14

OP_IDS = {
    "sw": OP_SW, "lw": OP_LW, "sb": OP_SB, "lb": OP_LB,
    "move": OP_MOVE, "li": OP_LI, "addiu": OP_ADDIU, "addu": OP_ADDU,
    "nand": OP_NAND, "beq": OP_BEQ, "bnez": OP_BNEZ, "j": OP_J,
    "jal": OP_JAL, "jr": OP_JR, "nop": OP_NOP,
}


@dataclass(frozen=True)
class DeviceConfig:
    base: int = DEFAULT_DEVICE_BASE
    size: int = DEFAULT_DEVICE_SIZE
    print_offset: int = DEFAULT_PRINT_OFFSET
    halt_offset: int = DEFAULT_HALT_OFFSET

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


@dataclass(frozen=True)
class Image:
    """A decoded program ready for interpretation."""

    base: int
    code: tuple[tuple[int, int, int, int], ...]  # (opid, a, b, c)
    blobs: tuple[tuple[int, bytes, int, int, bool], ...]  # addr, data, step, size, init
    entry_addr: int
    device: DeviceConfig = DeviceConfig()
    stack_base: ClassVar[int] = DEFAULT_STACK_BASE  # the initial sp of every run

    @property
    def code_end(self) -> int:
        return self.base + 4 * len(self.code)


@dataclass
class Fault:
    kind: str
    pc: int
    addr: int

    def __str__(self) -> str:
        return f"{self.kind} at pc=0x{self.pc:08x}, address 0x{self.addr:08x}"


@dataclass
class RunOutcome:
    regs: list[int]                 # final 32-bit values (lo words)
    output: bytes
    halted: bool
    steps: int
    faults: list[Fault] = field(default_factory=list)
    error: str | None = None
    error_pc: int | None = None
    exit_reason: str | None = None  # "halt-device" | "returned" | None

    @property
    def ok(self) -> bool:
        return self.error is None
