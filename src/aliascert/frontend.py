"""Textual assembly dialect and the canonical annotation grammar.

Program lines are one of: ``label:``, an instruction, a ``.bytes`` data
directive, a ``#`` comment, or a ``#@`` pragma (``entry`` / ``assume``).
Annotations render canonically as ``sp*=c^[32,0]!{16,24,28}, ra=u^0, ...``
with registers in index order, then slots ``(n)=...`` ascending; towers
are written current-frame first.  This grammar is the single source of
truth for program input and golden-annotation comparison.
"""

from __future__ import annotations

import re
from typing import Callable

from .annot import (
    AnnotatedType,
    Calc,
    Finite,
    Offsets,
    Rep,
    SetVar,
    TypeVar,
    Uncalc,
)
from .annotation import Annotation
from .isa import (
    BASE_ADDRESS,
    FORMATS,
    IMM_MAX,
    IMM_MIN,
    DataBlob,
    Instruction,
    Pragma,
    Program,
    REG_INDEX,
    reg_name,
)


class AsmSyntaxError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class DuplicateLabel(Exception):
    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: duplicate label {name!r}")
        self.name = name
        self.line = line


# --------------------------------------------------------------------------
# annotation serialization


def serialize_type(t: AnnotatedType) -> str:
    return str(t)


def serialize_annotation(a: Annotation,
                         type_text: Callable[[AnnotatedType], str] = str) -> str:
    """Deterministic rendering; round-trips through parse_annotation.
    ``type_text`` renders one type; a caching renderer may stand in for
    ``str``."""
    parts = []
    for r, t in a.regs:  # already sorted by register index
        star = "*" if r == a.star else ""
        parts.append(f"{reg_name(r)}{star}={type_text(t)}")
    for k, t in a.slots:
        parts.append(f"({k})={type_text(t)}")
    return ", ".join(parts)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TYPE_RE = re.compile(
    r"""^(?:
        \?(?P<tvar>%(n)s)
      | c\^\[(?P<frames>\d+(?:,\d+)*)\](?P<coffs>!(?:\{\d*(?:,\d+)*\}|\?%(n)s))?
      | c\^rep\((?P<step>\d+)\)(?P<roffs>!(?:\{\d*(?:,\d+)*\}|\?%(n)s))?
      | u\^(?P<size>\d+)(?P<uoffs>!(?:\{\d*(?:,\d+)*\}|\?%(n)s))?
    )$""" % {"n": _NAME},
    re.VERBOSE,
)


def parse_type(text: str) -> AnnotatedType:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed annotated type {text!r}")
    if m.group("tvar"):
        return TypeVar(m.group("tvar"))
    if m.group("size") is not None:
        return Uncalc(int(m.group("size")), _parse_offs(m.group("uoffs")))
    if m.group("step") is not None:
        return Calc(Rep(int(m.group("step"))), _parse_offs(m.group("roffs")))
    frames = tuple(int(f) for f in m.group("frames").split(","))
    return Calc(Finite(frames), _parse_offs(m.group("coffs")))


def _parse_offs(suffix: str | None):
    if not suffix:
        return Offsets(frozenset())
    body = suffix[1:]  # strip '!'
    if body.startswith("?"):
        return SetVar(body[1:])
    inner = body[1:-1]  # strip braces
    if not inner:
        return Offsets(frozenset())
    return Offsets(frozenset(int(k) for k in inner.split(",")))


_BINDING_RE = re.compile(
    r"^(?:(?P<reg>%(n)s)(?P<star>\*)?|\((?P<slot>\d+)\))=(?P<type>.+)$" % {"n": _NAME}
)


def parse_annotation(text: str) -> Annotation:
    """Parse ``reg[*]=type, (n)=type, ...`` into an Annotation."""
    star = None
    regs: dict[int, AnnotatedType] = {}
    slots: dict[int, AnnotatedType] = {}
    text = text.strip()
    if text:
        for part in _split_bindings(text):
            m = _BINDING_RE.match(part.strip())
            if not m:
                raise ValueError(f"malformed binding {part!r}")
            t = parse_type(m.group("type"))
            if m.group("slot") is not None:
                slots[int(m.group("slot"))] = t
            else:
                name = m.group("reg")
                if name not in REG_INDEX:
                    raise ValueError(f"unknown register {name!r}")
                r = REG_INDEX[name]
                regs[r] = t
                if m.group("star"):
                    if star is not None:
                        raise ValueError("more than one starred register")
                    star = r
    return Annotation.make(star=star, regs=regs, slots=slots)


def _split_bindings(text: str) -> list[str]:
    # Commas separate bindings but also occur inside towers and offset sets;
    # split only at depth zero.
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# --------------------------------------------------------------------------
# program parsing

_LBL = r"[A-Za-z_$][A-Za-z0-9_$]*"
_LABEL_RE = re.compile(r"^(%s):\s*(.*)$" % _LBL)
_MEM_OPERAND_RE = re.compile(r"^(-?(?:0x[0-9a-fA-F]+|\d+))\((%s|r\d+)\)$" % _NAME)


def parse_program(text: str, base: int = BASE_ADDRESS) -> Program:
    """Parse assembly source into an addressed :class:`Program`."""
    prog = Program(base=base)
    pending_labels: list[tuple[str, int]] = []
    addr = base
    referenced: list[tuple[str, int]] = []

    def place_labels(at: int, line_no: int):
        for name, ln in pending_labels:
            if name in prog.labels:
                raise DuplicateLabel(name, ln)
            prog.labels[name] = at
        pending_labels.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#@"):
            prog.pragmas.append(_parse_pragma(line[2:].strip(), line_no))
            continue
        if "#" in line:
            line = line[: line.index("#")].strip()
        if not line:
            continue
        m = _LABEL_RE.match(line)
        if m:
            pending_labels.append((m.group(1), line_no))
            line = m.group(2).strip()
            if not line:
                continue
        if line.startswith(".bytes"):
            addr = _align4(addr)
            blob = _parse_bytes(line[len(".bytes"):].strip(), line_no,
                                pending_labels[-1][0] if pending_labels else None)
            if blob.label is None:
                raise AsmSyntaxError(line_no, ".bytes requires a preceding label")
            place_labels(addr, line_no)
            prog.blobs[blob.label] = blob
            addr += _align4(max(len(blob.data), 1))
            continue
        instr = _parse_instruction(line, line_no, referenced)
        place_labels(addr, line_no)
        prog.source_lines[addr] = line
        prog.instructions.append(instr)
        addr += 4
    place_labels(addr, len(text.splitlines()) + 1)

    for name, line_no in referenced:
        if name not in prog.labels:
            raise AsmSyntaxError(line_no, f"unresolved label {name!r}")
    for p in prog.pragmas:
        if p.subject not in prog.labels:
            raise AsmSyntaxError(0, f"pragma refers to unknown label {p.subject!r}")
    return prog


def _align4(n: int) -> int:
    return (n + 3) & ~3


def _parse_pragma(body: str, line_no: int) -> Pragma:
    if body.startswith("entry"):
        parts = body.split()
        if len(parts) != 2:
            raise AsmSyntaxError(line_no, "expected '#@ entry LABEL'")
        return Pragma("entry", parts[1])
    if body.startswith("assume"):
        rest = body[len("assume"):].strip()
        if ":" not in rest:
            raise AsmSyntaxError(line_no, "expected '#@ assume LABEL: bindings'")
        label, bindings = rest.split(":", 1)
        try:
            ann = parse_annotation(bindings.strip())
        except ValueError as e:
            raise AsmSyntaxError(line_no, str(e)) from e
        return Pragma("assume", label.strip(), ann)
    raise AsmSyntaxError(line_no, f"unknown pragma {body.split()[0] if body else ''!r}")


def _parse_reg(tok: str, line_no: int) -> int:
    if tok not in REG_INDEX:
        raise AsmSyntaxError(line_no, f"unknown register {tok!r}")
    return REG_INDEX[tok]


def _parse_int(tok: str, line_no: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmSyntaxError(line_no, f"malformed integer {tok!r}") from None


def _parse_imm16(tok: str, line_no: int) -> int:
    v = _parse_int(tok, line_no)
    if not (IMM_MIN <= v <= IMM_MAX):
        raise AsmSyntaxError(line_no, f"immediate {v} exceeds signed 16 bits")
    return v


def _parse_target(tok: str, line_no: int, referenced: list):
    if re.fullmatch(r"-?(?:0x[0-9a-fA-F]+|\d+)", tok):
        v = _parse_int(tok, line_no)
        if not (0 <= v <= 0xFFFFFFFF):
            raise AsmSyntaxError(line_no, f"address {v:#x} exceeds 32 bits")
        return v
    tok = tok.strip("<>")
    if not re.fullmatch(_LBL, tok):
        raise AsmSyntaxError(line_no, f"malformed label reference {tok!r}")
    referenced.append((tok, line_no))
    return tok


def _parse_instruction(line: str, line_no: int, referenced: list) -> Instruction:
    toks = line.replace(",", " ").split()
    if not toks:
        raise AsmSyntaxError(line_no, "expected an instruction")
    op, args = toks[0], toks[1:]
    fields = FORMATS.get(op)
    if fields is None:
        raise AsmSyntaxError(line_no, f"unknown mnemonic {op!r}")
    if len(args) != len(fields):
        raise AsmSyntaxError(line_no, f"{op} expects {len(fields)} operand(s), got {len(args)}")
    operands = {}
    for f, tok in zip(fields, args):
        if f == "mem":
            m = _MEM_OPERAND_RE.match(tok)
            if not m:
                raise AsmSyntaxError(line_no, f"expected offset(base), got {tok!r}")
            operands["imm"] = _parse_imm16(m.group(1), line_no)
            operands["rs"] = _parse_reg(m.group(2), line_no)
        elif f == "imm":
            operands[f] = _parse_imm16(tok, line_no)
        elif f == "target":
            operands[f] = _parse_target(tok, line_no, referenced)
        else:
            operands[f] = _parse_reg(tok, line_no)
    return Instruction(op, **operands)


_ESCAPES = {"0": 0, "n": 10, "t": 9, "r": 13, "\\": 92, '"': 34}


def _parse_bytes(body: str, line_no: int, label: str | None) -> DataBlob:
    data = bytearray()
    step, size, init = 1, None, True
    i = 0
    while i < len(body):
        ch = body[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            i += 1
            while i < len(body) and body[i] != '"':
                if body[i] == "\\":
                    i += 1
                    if i >= len(body):
                        raise AsmSyntaxError(line_no, "dangling escape in string")
                    esc = body[i]
                    if esc == "x":
                        digits = body[i + 1:i + 3]
                        if not re.fullmatch(r"[0-9a-fA-F]{2}", digits):
                            raise AsmSyntaxError(line_no, f"malformed escape \\x{digits}")
                        data.append(int(digits, 16))
                        i += 2
                    elif esc in _ESCAPES:
                        data.append(_ESCAPES[esc])
                    else:
                        raise AsmSyntaxError(line_no, f"unknown escape \\{esc}")
                else:
                    data.append(ord(body[i]))
                i += 1
            if i >= len(body):
                raise AsmSyntaxError(line_no, "unterminated string literal")
            i += 1
            continue
        j = i
        while j < len(body) and not body[j].isspace():
            j += 1
        tok = body[i:j]
        i = j
        if "=" in tok:
            key, val = tok.split("=", 1)
            if key == "step":
                step = _parse_int(val, line_no)
            elif key == "size":
                size = _parse_int(val, line_no)
            else:
                raise AsmSyntaxError(line_no, f"unknown .bytes attribute {key!r}")
        elif tok == "noinit":
            init = False
        elif tok == "init":
            init = True
        else:
            v = _parse_int(tok, line_no)
            if not (0 <= v <= 255):
                raise AsmSyntaxError(line_no, f"byte value {v} out of range")
            data.append(v)
    if step < 1:
        raise AsmSyntaxError(line_no, "step must be >= 1")
    if size is not None and size < 0:
        raise AsmSyntaxError(line_no, "size must be >= 0")
    return DataBlob(label=label, data=bytes(data), step=step, size=size, init=init)
