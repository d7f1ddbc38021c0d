"""Disassembly of machine instructions to stack-machine alternatives.

Each machine instruction admits a fixed, ordered list of stack-machine
readings.  The list is pruned twice: first by where the stack pointer
register sits (the location constraints), then by whether the small-step
pre-pattern can match the current annotation.  The surviving order is the
deterministic search order for the certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import DataBlob, Instruction, Target, render

# ops whose machine rendering is a byte access
BYTE_OPS = frozenset({"getb", "putb", "getbx", "putbx", "lbfh", "sbth"})
STACK_ACCESS = frozenset({"get", "put", "getb", "putb"})
READ_OPS = frozenset({"get", "getb", "getx", "getbx", "lwfh", "lbfh"})
WRITE_OPS = frozenset({"put", "putb", "putx", "putbx", "swth", "sbth"})


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
# location constraints: where may the stack pointer register sit


def location_candidates(op: str, rd_starred: bool, rs_starred: bool,
                        same_reg: bool = False) -> list[str]:
    """Stack-instruction names admissible for ``op`` given which operand
    registers currently hold the stack pointer.  Mirrors the pruning
    matrix; ``mspt``/``stepto``/``pushto`` have no small-step rules and are
    never produced."""
    if op == "move":
        if rs_starred and not rd_starred:
            return ["cspt"]
        if rd_starred and not rs_starred:
            return ["cspf", "rspf"]
        if not rd_starred and not rs_starred:
            return ["mov"]
        return []
    if op == "addiu":
        if rd_starred and rs_starred:
            return ["push"] if same_reg else []
        if rd_starred or rs_starred:
            return []
        out = ["stepx"] if same_reg else []
        return out + ["addaiu"]
    if op in ("lw", "lb"):
        b = op == "lb"
        if rd_starred:
            return []
        if rs_starred:
            return ["getb" if b else "get"]
        return ["lbfh", "getbx"] if b else ["lwfh", "getx"]
    if op in ("sw", "sb"):
        b = op == "sb"
        if rd_starred:
            return []
        if rs_starred:
            return ["putb" if b else "put"]
        return ["sbth", "putbx"] if b else ["swth", "putx"]
    raise ValueError(f"no location matrix for {op!r}")


def _blob_intro_offsets(blob: DataBlob, bound: int) -> frozenset[int]:
    if not blob.init:
        return frozenset()
    return frozenset(range(min(bound, len(blob.data))))


def raw_alternatives(i: Instruction, star: int | None,
                     blobs: dict[str, DataBlob] | None = None) -> list[StackInstr]:
    """Ordered stack-machine readings of ``i`` before pattern filtering."""
    op = i.op
    if op == "move":
        names = location_candidates(op, i.rd == star, i.rs == star, i.rd == i.rs)
        table = {
            "cspt": StackInstr("cspt", rd=i.rd),
            "cspf": StackInstr("cspf", rs=i.rs),
            "rspf": StackInstr("rspf", rs=i.rs),
            "mov": StackInstr("mov", rd=i.rd, rs=i.rs),
        }
        return [table[n] for n in names]
    if op == "addiu":
        names = location_candidates(op, i.rd == star, i.rs == star, i.rd == i.rs)
        out = []
        for n in names:
            if n == "push":
                if i.imm < 0:
                    out.append(StackInstr("push", n=-i.imm))
            elif n == "stepx":
                if i.imm > 0:
                    out.append(StackInstr("stepx", rd=i.rd, n=i.imm))
            else:
                out.append(StackInstr("addaiu", rd=i.rd, rs=i.rs, n=i.imm))
        return out
    if op in ("lw", "lb", "sw", "sb"):
        names = location_candidates(op, i.rd == star, i.rs == star, i.rd == i.rs)
        out = []
        for n in names:
            if n in STACK_ACCESS:
                out.append(StackInstr(n, rd=i.rd, n=i.imm))
            else:
                out.append(StackInstr(n, rd=i.rd, rs=i.rs, n=i.imm))
        return out
    if op == "li":
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
    if op == "jal":
        return [StackInstr("gosub", target=i.target)]
    if op == "jr":
        return [StackInstr("return", rd=i.rd)]
    if op == "j":
        return [StackInstr("goto", target=i.target)]
    if op == "bnez":
        return [StackInstr("ifnz", rd=i.rd, target=i.target)]
    if op == "beq":
        return [StackInstr("ifeq", rd=i.rd, rs=i.rs, target=i.target)]
    if op == "addu":
        return [StackInstr("addop", rd=i.rd, rs=i.rs, rt=i.rt)]
    if op == "nand":
        return [StackInstr("nandop", rd=i.rd, rs=i.rs, rt=i.rt)]
    if op == "nop":
        return [StackInstr("nop")]
    raise ValueError(f"unknown opcode {i.op!r}")


def candidates(i: Instruction, a, blobs: dict[str, DataBlob] | None = None) -> list[StackInstr]:
    """Alternatives whose small-step pre-pattern matches annotation ``a``,
    in deterministic search order.  An empty result is valid; the caller
    reports it as a missing disassembly."""
    from .smallstep import pattern_matches

    return [s for s in raw_alternatives(i, a.star, blobs) if pattern_matches(s, a)]


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
