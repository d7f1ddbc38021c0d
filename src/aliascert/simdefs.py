"""Shared definitions for the interpreter and its single-step reference.

The clean, the aliasing and the symbolic run are one loop in `_engine`
with different salts; all produce the same outcome record, so they can
be compared with each other and with the single-step reference in
`machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

M32 = 0xFFFFFFFF

DEFAULT_DEVICE_BASE = 0xB0000000
DEFAULT_DEVICE_SIZE = 0x100
DEFAULT_PRINT_OFFSET = 0x00
DEFAULT_HALT_OFFSET = 0x10
DEFAULT_STACK_BASE = 0x7FFFF000  # the initial sp of every run
RETURN_SENTINEL = 0xFFFFFFFC  # initial ra; jumping here ends the run

DEFAULT_FUEL = 1_000_000

@dataclass(frozen=True)
class DeviceConfig:
    base: int = DEFAULT_DEVICE_BASE
    size: int = DEFAULT_DEVICE_SIZE
    print_offset: int = DEFAULT_PRINT_OFFSET
    halt_offset: int = DEFAULT_HALT_OFFSET

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


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
