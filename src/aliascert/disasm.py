"""Disassembly of machine instructions to stack-machine alternatives.

Each machine instruction admits a fixed, ordered list of stack-machine
readings, one table (`READINGS`) for every mnemonic, and no instruction
more than two.  `raw_alternatives` keeps those that fit where the stack
pointer register sits (the location constraints each reading states), in
table order, and builds ``li``'s from the data blob its label names; the
certifier tries them in that order, each against its small-step rule.
Each reading also states what the certifier's backjumping needs of that
rule: whether it is blind to types, and which operand it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import DataBlob, Instruction, Target, render


@dataclass(frozen=True, slots=True)
class StackInstr:
    """One abstract stack-machine instruction.

    ``offs`` carries the initialized offsets a ``newx``/``newh`` reading
    introduces; it comes from the declared data blob, not from a machine
    operand.
    """

    op: str
    rd: int | None = None
    rs: int | None = None
    rt: int | None = None
    n: int | None = None
    target: Target | None = None
    offs: frozenset[int] = field(default=frozenset())

    def width(self) -> int:
        return 1 if self.op in BYTE_OPS else 4

    def __str__(self) -> str:
        return render(self.op, _STACK_FORMATS.get(self.op, ()), self, imm="n")


# The operands each stack instruction prints, in order, rendered as
# `isa.FORMATS` operands are; ``mem`` is ``n(rs)``.  ``return`` and ``nop``
# print bare.
_STACK_FORMATS: dict[str, tuple[str, ...]] = {
    "cspt": ("rd",), "cspf": ("rs",), "rspf": ("rs",),
    "push": ("n",),
    **dict.fromkeys(("get", "put", "getb", "putb", "stepx"), ("rd", "n")),
    **dict.fromkeys(("getx", "putx", "getbx", "putbx", "lwfh", "swth", "lbfh", "sbth"),
                    ("rd", "mem")),
    "newx": ("rd", "target", "n"), "newh": ("rd", "target", "n"),
    "gosub": ("target",), "goto": ("target",),
    "ifnz": ("rd", "target"),
    "ifeq": ("rd", "rs", "target"),
    "mov": ("rd", "rs"),
    "addaiu": ("rd", "rs", "n"),
    "addop": ("rd", "rs", "rt"), "nandop": ("rd", "rs", "rt"),
}


# --------------------------------------------------------------------------
# the readings of each machine instruction

# Where the stack pointer register must sit for a reading, as (in rd, in
# rs); a reading without a placement admits it anywhere.
RD_ONLY, RS_ONLY, BOTH, NEITHER = (True, False), (False, True), (True, True), (False, False)


@dataclass(frozen=True, slots=True)
class _Reading:
    """One stack-machine reading of a machine instruction.  ``same``
    demands that ``rd`` and ``rs`` be one register; ``sign`` is the sign
    the immediate must have, and a negative one reads ``n = -imm``.  The
    reading keeps the operands its stack op prints, ``n`` taken from the
    immediate; ``return`` prints bare but keeps ``rd``.

    ``blind`` and ``writes`` state what the certifier's backjumping needs
    of the reading's rule.  A blind reading fails only on where the stack
    pointer sits, on an unbound register or on the zero register as its
    destination, never on a type.  ``writes`` names the operand whose type
    the reading changes: ``rd``, overwritten outright (the new type does not
    depend on ``rd``'s old one unless ``rd`` is also a source), or ``rs``,
    changed in place (a store grows its offset set, a push adds a frame).
    A reading that needs the stack pointer in an operand may also change
    the stack slots."""

    op: str
    star: tuple[bool, bool] | None = None
    same: bool = False
    sign: int = 0
    blind: bool = False
    writes: str | None = None
    keep: frozenset[str] = field(init=False)

    def __post_init__(self):
        fields = {"rd"} if self.op == "return" else set()
        for f in _STACK_FORMATS.get(self.op, ()):
            fields.update(("n", "rs") if f == "mem" else (f,))
        object.__setattr__(self, "keep", frozenset(fields))

    def admits(self, at: tuple[bool, bool], same: bool) -> bool:
        """Whether the stack pointer placement ``at`` and ``same``, whether
        ``rd`` and ``rs`` are one register, fit the reading."""
        return (self.star is None or self.star == at) and (same or not self.same)

    def of(self, i: Instruction) -> StackInstr:
        keep = self.keep
        n = None
        if "n" in keep:
            n = -i.imm if self.sign < 0 else i.imm
        return StackInstr(self.op, i.rd if "rd" in keep else None,
                          i.rs if "rs" in keep else None, i.rt if "rt" in keep else None,
                          n, i.target if "target" in keep else None)


# Every mnemonic, with its readings in search order.  ``mspt``/``stepto``/
# ``pushto`` have no small-step rules and are never produced.  A string step
# (``stepx``) leaves its pointer's type as it was.  A call (``gosub``) is
# applied by the calling convention, not by a small-step rule, and the
# certifier takes it to depend on every choice before it.  ``li`` reads the
# data blob its label names as a string stepped through (``newx``) or an
# array (``newh``, the only reading of a raw address); `raw_alternatives`
# builds both from the blob.
READINGS: dict[str, tuple[_Reading, ...]] = {
    "move": (_Reading("cspt", RS_ONLY, blind=True, writes="rd"),
             _Reading("cspf", RD_ONLY, writes="rd"), _Reading("rspf", RD_ONLY, writes="rd"),
             _Reading("mov", NEITHER, blind=True, writes="rd")),
    "addiu": (_Reading("push", BOTH, same=True, sign=-1, blind=True, writes="rs"),
              _Reading("stepx", NEITHER, same=True, sign=1),
              _Reading("addaiu", NEITHER, writes="rd")),
    "lw": (_Reading("get", RS_ONLY, writes="rd"), _Reading("lwfh", NEITHER, writes="rd"),
           _Reading("getx", NEITHER, writes="rd")),
    "lb": (_Reading("getb", RS_ONLY, writes="rd"), _Reading("lbfh", NEITHER, writes="rd"),
           _Reading("getbx", NEITHER, writes="rd")),
    "sw": (_Reading("put", RS_ONLY, writes="rs"), _Reading("swth", NEITHER, writes="rs"),
           _Reading("putx", NEITHER, writes="rs")),
    "sb": (_Reading("putb", RS_ONLY, writes="rs"), _Reading("sbth", NEITHER, writes="rs"),
           _Reading("putbx", NEITHER, writes="rs")),
    "jal": (_Reading("gosub"),), "jr": (_Reading("return"),),
    "j": (_Reading("goto", blind=True),),
    "bnez": (_Reading("ifnz"),), "beq": (_Reading("ifeq"),),
    "addu": (_Reading("addop", blind=True, writes="rd"),),
    "nand": (_Reading("nandop", blind=True, writes="rd"),),
    "nop": (_Reading("nop", blind=True),),
    "li": (_Reading("newx", blind=True, writes="rd"), _Reading("newh", blind=True, writes="rd")),
}


def _ops(*mnemonics: str, star: tuple[bool, bool] | None = None) -> frozenset[str]:
    return frozenset(r.op for m in mnemonics for r in READINGS[m]
                     if star is None or r.star == star)


READ_OPS = _ops("lw", "lb")
WRITE_OPS = _ops("sw", "sb")
BYTE_OPS = _ops("lb", "sb")  # ops whose machine rendering is a byte access
STACK_ACCESS = _ops("lw", "lb", "sw", "sb", star=RS_ONLY)


def location_candidates(op: str, rd_starred: bool, rs_starred: bool,
                        same_reg: bool = False) -> list[str]:
    """Stack-instruction names admissible for ``op`` given which operand
    registers currently hold the stack pointer."""
    if op not in READINGS:
        raise ValueError(f"no readings for {op!r}")
    return [r.op for r in READINGS[op] if r.admits((rd_starred, rs_starred), same_reg)]


def _blob_intro_offsets(blob: DataBlob, bound: int) -> frozenset[int]:
    if not blob.init:
        return frozenset()
    return frozenset(range(min(bound, len(blob.data))))


def raw_alternatives(i: Instruction, star: int | None,
                     blobs: dict[str, DataBlob] | None = None) -> list[StackInstr]:
    """Ordered stack-machine readings of ``i`` with the stack pointer in
    ``star``."""
    if i.op == "li":
        if blobs and isinstance(i.target, str) and i.target in blobs:
            blob = blobs[i.target]
            out = [StackInstr("newx", rd=i.rd, target=i.target, n=blob.step,
                              offs=_blob_intro_offsets(blob, blob.step))]
            if blob.byte_size >= 1:
                out.append(StackInstr("newh", rd=i.rd, target=i.target, n=blob.byte_size,
                                      offs=_blob_intro_offsets(blob, blob.byte_size)))
            return out
        # a raw address (device constant or code label): an unmodifiable
        # byte-sized target; nothing to step through
        return [StackInstr("newh", rd=i.rd, target=i.target, n=1)]
    readings = READINGS.get(i.op)
    if readings is None:
        raise ValueError(f"unknown opcode {i.op!r}")
    at = (i.rd == star, i.rs == star)
    return [r.of(i) for r in readings
            if r.admits(at, i.rd == i.rs) and (not r.sign or i.imm * r.sign > 0)]


def render_machine(s: StackInstr, star: int | None) -> Instruction:
    """Machine instruction a stack instruction renders back to; inverse of
    the disassembly table, used to check candidate soundness."""
    op = s.op
    if op == "cspt":
        return Instruction("move", rd=s.rd, rs=star)
    if op in ("cspf", "rspf"):
        return Instruction("move", rd=star, rs=s.rs)
    if op == "push":
        return Instruction("addiu", rd=star, rs=star, imm=-s.n)
    if op == "stepx":
        return Instruction("addiu", rd=s.rd, rs=s.rd, imm=s.n)
    if op == "addaiu":
        return Instruction("addiu", rd=s.rd, rs=s.rs, imm=s.n)
    if op in ("get", "getb"):
        return Instruction("lw" if op == "get" else "lb", rd=s.rd, rs=star, imm=s.n)
    if op in ("put", "putb"):
        return Instruction("sw" if op == "put" else "sb", rd=s.rd, rs=star, imm=s.n)
    if op in ("getx", "lwfh"):
        return Instruction("lw", rd=s.rd, rs=s.rs, imm=s.n)
    if op in ("getbx", "lbfh"):
        return Instruction("lb", rd=s.rd, rs=s.rs, imm=s.n)
    if op in ("putx", "swth"):
        return Instruction("sw", rd=s.rd, rs=s.rs, imm=s.n)
    if op in ("putbx", "sbth"):
        return Instruction("sb", rd=s.rd, rs=s.rs, imm=s.n)
    if op in ("newx", "newh"):
        return Instruction("li", rd=s.rd, target=s.target)
    if op == "gosub":
        return Instruction("jal", target=s.target)
    if op == "return":
        return Instruction("jr", rd=s.rd)
    if op == "goto":
        return Instruction("j", target=s.target)
    if op == "ifnz":
        return Instruction("bnez", rd=s.rd, target=s.target)
    if op == "ifeq":
        return Instruction("beq", rd=s.rd, rs=s.rs, target=s.target)
    if op == "mov":
        return Instruction("move", rd=s.rd, rs=s.rs)
    if op == "nandop":
        return Instruction("nand", rd=s.rd, rs=s.rs, rt=s.rt)
    if op == "addop":
        return Instruction("addu", rd=s.rd, rs=s.rs, rt=s.rt)
    if op == "nop":
        return Instruction("nop")
    raise ValueError(f"unknown stack op {op!r}")
