"""Machine-level program representation: registers, instructions, programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .annot import Annotation

BASE_ADDRESS = 0x00400000

REG_NAMES = (
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
)

REG_INDEX = {name: i for i, name in enumerate(REG_NAMES)}
REG_INDEX.update({f"r{i}": i for i in range(32)})

ZERO, V0, V1, A0 = 0, 2, 3, 4
GP, SP, FP, RA = 28, 29, 30, 31


def reg_name(i: int) -> str:
    return REG_NAMES[i]


IMM_MIN, IMM_MAX = -(1 << 15), (1 << 15) - 1

Target = Union[int, str]  # resolved address or symbolic label


# The operands of each mnemonic, in source order: the one table that
# parsing, printing and image decoding read.  ``mem`` is ``offset(base)``,
# the fields ``imm`` then ``rs``.
FORMATS: dict[str, tuple[str, ...]] = {
    "sw": ("rd", "mem"), "lw": ("rd", "mem"), "sb": ("rd", "mem"), "lb": ("rd", "mem"),
    "move": ("rd", "rs"),
    "li": ("rd", "target"),
    "addiu": ("rd", "rs", "imm"),
    "addu": ("rd", "rs", "rt"), "nand": ("rd", "rs", "rt"),
    "beq": ("rd", "rs", "target"),
    "bnez": ("rd", "target"),
    "j": ("target",), "jal": ("target",),
    "jr": ("rd",),
    "nop": (),
}


def render(op: str, fields: tuple[str, ...], x, imm: str = "imm") -> str:
    """``op`` and the operands of ``x`` that ``fields`` names, as the
    dialect writes them.  ``imm`` names the field of ``x`` that holds its
    immediate; ``mem`` is written ``imm(rs)``."""
    parts = [op]
    for f in fields:
        if f == "target":
            t = x.target
            parts.append(t if isinstance(t, str) else (f"0x{t:08x}" if t is not None else "?"))
        elif f == "mem":
            parts.append(f"{getattr(x, imm)}({reg_name(x.rs)})")
        elif f == imm:
            parts.append(str(getattr(x, f)))
        else:
            parts.append(reg_name(getattr(x, f)))
    return " ".join(parts)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded machine instruction; ``FORMATS`` lists which operand
    fields each mnemonic uses, the others stay None."""

    op: str
    rd: int | None = None
    rs: int | None = None
    rt: int | None = None
    imm: int | None = None
    target: Target | None = None

    def __str__(self) -> str:
        return render(self.op, FORMATS.get(self.op, ()), self)


@dataclass(frozen=True)
class DataBlob:
    """Initialized bytes at a data label, the blob's key in ``Program.blobs``.

    ``step`` is the increment for string-style access, ``size`` the bound
    for array-style access; ``init`` marks whether the bytes are considered
    already written when the label's address is introduced.  In memory the
    blob takes ``extent`` bytes: its data or its declared size, whichever
    is larger, rounded up to a word, so the next blob lies past both.
    """

    data: bytes
    step: int = 1
    size: int | None = None  # defaults to len(data)
    init: bool = True

    @property
    def byte_size(self) -> int:
        return self.size if self.size is not None else len(self.data)

    @property
    def extent(self) -> int:
        """The bytes the blob takes in memory, at least one word."""
        return max(len(self.data), self.byte_size, 1) + 3 & ~3


@dataclass
class Program:
    """An addressed program: code at BASE_ADDRESS + 4k, data blobs after
    the code; `frontend` refuses an instruction after a blob.
    ``entry`` is the label of its ``#@ entry`` pragma unless a caller sets
    another, and every command starts there; ``assumes`` is the hypothesis
    of each ``#@ assume`` pragma by label."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    blobs: dict[str, DataBlob] = field(default_factory=dict)
    entry: str | None = None
    assumes: dict[str, Annotation] = field(default_factory=dict)
    source_lines: dict[int, str] = field(default_factory=dict)  # addr -> text
    _label_index: tuple[int, dict[int, str]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def instruction_at(self, addr: int) -> Instruction | None:
        k = (addr - BASE_ADDRESS) // 4
        if 0 <= k < len(self.instructions) and addr % 4 == 0:
            return self.instructions[k]
        return None

    def resolve(self, t: Target) -> int:
        if isinstance(t, int):
            return t
        return self.labels[t]

    def entry_address(self) -> int:
        """The address of the entry label; a ``ValueError`` unless it marks
        an instruction."""
        label = self.entry
        if label is None:
            raise ValueError("program has no entry pragma and no entry was given")
        if label not in self.labels:
            raise ValueError(f"entry label {label!r} is not defined")
        addr = self.labels[label]
        if self.instruction_at(addr) is None:
            raise ValueError(f"entry label {label!r} does not mark an instruction")
        return addr

    def label_at(self, addr: int) -> str | None:
        """The first label defined at ``addr``, if any.  The index is built
        on first use, and again whenever labels were added since."""
        if self._label_index is None or self._label_index[0] != len(self.labels):
            index: dict[int, str] = {}
            for name, a in self.labels.items():
                index.setdefault(a, name)
            self._label_index = (len(self.labels), index)
        return self._label_index[1].get(addr)
