"""The textual assembly dialect.

Program lines are one of: ``label:``, an instruction, a ``.bytes`` data
directive, a ``#`` comment, or a ``#@`` pragma: one ``entry`` that labels
an instruction, and at most one ``assume`` per label, whose bindings are
an annotation in the canonical text ``annot.parse_annotation`` reads.
Code comes before data: no instruction follows a ``.bytes`` directive,
and no data reaches the initial stack pointer, ``DEFAULT_STACK_BASE``,
below which the stack grows and above which the device window lies.

A string literal is one pattern, ``_STRING``: a quote, then escapes and
characters other than a quote or backslash, then a quote.  It decides
both where a comment starts, at the first ``#`` outside a literal (after
an unterminated literal, none does), and what a ``.bytes`` literal holds.
An integer is read one way wherever it appears (an immediate, an
``offset(base)`` offset, a jump target, a ``.bytes`` value or attribute):
as a Python integer literal, ``int(token, 0)``, so ``0x10``, ``0X10``,
``0b11``, ``0o7``, ``+5`` and ``1_0`` are integers and ``010`` is not.
A token that is not one is refused with its position's message.  A jump
target is read as a number only when it starts with a digit or a sign.
"""

from __future__ import annotations

import re

from .annot import Annotation, parse_annotation
from .isa import (
    BASE_ADDRESS,
    FORMATS,
    IMM_MAX,
    IMM_MIN,
    DataBlob,
    Instruction,
    Program,
    REG_INDEX,
)
from .machine import DEFAULT_STACK_BASE


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
# program parsing

_LBL = r"[A-Za-z_$][A-Za-z0-9_$]*"
_LABEL_RE = re.compile(r"^(%s):\s*(.*)$" % _LBL)
_MEM_OPERAND_RE = re.compile(r"^(.*)\(([A-Za-z_][A-Za-z0-9_]*)\)$")
_STRING = r'"(?:\\.|[^"\\])*"'
# a line up to its comment: literals and runs of other characters, then
# an unterminated literal, which runs to the end of the line
_CODE_RE = re.compile(r'(?:%s|[^"#]+)*(?:".*)?' % _STRING)
# a .bytes token: a string literal (group 1) or a run of other characters
_BYTES_TOKEN_RE = re.compile(r'(%s)|\S+' % _STRING)


def parse_program(text: str) -> Program:
    """Parse assembly source into a :class:`Program` addressed from
    ``isa.BASE_ADDRESS``.

    Lines with the same instruction text (labels and comments stripped)
    share one :class:`Instruction`: a memo keyed by that text lives for
    this call.  Each line still records the label its instruction names,
    so an unresolved label is reported at its first line."""
    prog = Program()
    parsed: dict[str, Instruction] = {}  # instruction text -> its one Instruction
    pending_labels: list[tuple[str, int]] = []
    addr = BASE_ADDRESS
    data_line = 0  # the line of the first .bytes directive
    referenced: list[tuple[str, int]] = []
    subjects: list[tuple[str, int]] = []  # the label each pragma names, and its line
    entry_line = 0

    def place_labels(at: int):
        for name, ln in pending_labels:
            if name in prog.labels:
                raise DuplicateLabel(name, ln)
            prog.labels[name] = at
        pending_labels.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#@"):
            name, ann = _parse_pragma(line[2:].strip(), line_no)
            if ann is None:
                if prog.entry is not None:
                    raise AsmSyntaxError(
                        line_no, f"second entry pragma; the entry is {prog.entry!r}")
                prog.entry, entry_line = name, line_no
            elif name in prog.assumes:
                raise AsmSyntaxError(line_no, f"second assume pragma for {name!r}")
            else:
                prog.assumes[name] = ann
            subjects.append((name, line_no))
            continue
        if "#" in line:
            line = _CODE_RE.match(line).group().strip()
        if not line:
            continue
        m = ":" in line and _LABEL_RE.match(line)
        if m:
            pending_labels.append((m.group(1), line_no))
            line = m.group(2).strip()
            if not line:
                continue
        if line.startswith(".bytes") and line.split(None, 1)[0] == ".bytes":
            blob = _parse_bytes(line[len(".bytes"):].strip(), line_no)
            if not pending_labels:
                raise AsmSyntaxError(line_no, ".bytes requires a preceding label")
            name = pending_labels[-1][0]
            if addr + blob.extent > DEFAULT_STACK_BASE:
                raise AsmSyntaxError(line_no, f"address {addr + blob.extent - 1:#x} of data "
                                              f"blob {name!r} reaches the stack at "
                                              f"{DEFAULT_STACK_BASE:#x}")
            prog.blobs[name] = blob
            data_line = data_line or line_no
            place_labels(addr)
            addr += blob.extent
            continue
        instr = parsed.get(line)
        if instr is None:
            instr = parsed[line] = _parse_instruction(line, line_no)
        if isinstance(instr.target, str):
            referenced.append((instr.target, line_no))
        if data_line:  # code runs on from BASE_ADDRESS with no gap
            raise AsmSyntaxError(
                line_no, f"instruction after the data of line {data_line}; code comes first")
        place_labels(addr)
        prog.source_lines[addr] = line
        prog.instructions.append(instr)
        addr += 4
    place_labels(addr)

    for name, line_no in referenced:
        if name not in prog.labels:
            raise AsmSyntaxError(line_no, f"unresolved label {name!r}")
    for name, line_no in subjects:
        if name not in prog.labels:
            raise AsmSyntaxError(line_no, f"pragma refers to unknown label {name!r}")
    if prog.entry is not None:
        try:
            prog.entry_address()
        except ValueError as e:
            raise AsmSyntaxError(entry_line, str(e)) from None
    return prog


def _parse_pragma(body: str, line_no: int) -> tuple[str, Annotation | None]:
    """The label a pragma names, and its hypothesis; None for ``entry``."""
    keyword, *names = body.split() or [""]
    if keyword == "entry":
        if len(names) != 1:
            raise AsmSyntaxError(line_no, "expected '#@ entry LABEL'")
        return names[0], None
    if keyword == "assume":
        rest = body[len("assume"):].strip()
        if ":" not in rest:
            raise AsmSyntaxError(line_no, "expected '#@ assume LABEL: bindings'")
        label, bindings = rest.split(":", 1)
        try:
            ann = parse_annotation(bindings.strip())
        except ValueError as e:
            raise AsmSyntaxError(line_no, str(e)) from e
        return label.strip(), ann
    raise AsmSyntaxError(line_no, f"unknown pragma {keyword!r}")


def _parse_reg(tok: str, line_no: int) -> int:
    if tok not in REG_INDEX:
        raise AsmSyntaxError(line_no, f"unknown register {tok!r}")
    return REG_INDEX[tok]


def _int(tok: str) -> int | None:
    """The integer ``tok`` spells, or None when it spells none."""
    try:
        return int(tok, 0)
    except ValueError:
        return None


def _parse_int(tok: str, line_no: int) -> int:
    v = _int(tok)
    if v is None:
        raise AsmSyntaxError(line_no, f"malformed integer {tok!r}")
    return v


def _imm16(v: int, line_no: int) -> int:
    if not (IMM_MIN <= v <= IMM_MAX):
        raise AsmSyntaxError(line_no, f"immediate {v} exceeds signed 16 bits")
    return v


def _parse_target(tok: str, line_no: int):
    v = _int(tok) if tok[0].isdigit() or tok[0] in "+-" else None
    if v is None:
        tok = tok.strip("<>")
        if not re.fullmatch(_LBL, tok):
            raise AsmSyntaxError(line_no, f"malformed label reference {tok!r}")
        return tok
    if not (0 <= v <= 0xFFFFFFFF):
        raise AsmSyntaxError(line_no, f"address {v:#x} exceeds 32 bits")
    return v


def _parse_instruction(line: str, line_no: int) -> Instruction:
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
            off = m and _int(m.group(1))
            if off is None:
                raise AsmSyntaxError(line_no, f"expected offset(base), got {tok!r}")
            operands["imm"] = _imm16(off, line_no)
            operands["rs"] = _parse_reg(m.group(2), line_no)
        elif f == "imm":
            operands[f] = _imm16(_parse_int(tok, line_no), line_no)
        elif f == "target":
            operands[f] = _parse_target(tok, line_no)
        else:
            operands[f] = _parse_reg(tok, line_no)
    return Instruction(op, **operands)


_ESCAPES = {"0": 0, "n": 10, "t": 9, "r": 13, "\\": 92, '"': 34}


def _parse_bytes(body: str, line_no: int) -> DataBlob:
    data = bytearray()
    step, size, init = 1, None, True
    for m in _BYTES_TOKEN_RE.finditer(body):
        tok = m.group()
        if tok[0] == '"':
            literal = m.group(1) is not None
            _decode_string(body, m.start() + 1, m.end() - 1 if literal else len(body),
                           line_no, data)
            if not literal:
                raise AsmSyntaxError(line_no, "unterminated string literal")
        elif "=" in tok:
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
    return DataBlob(data=bytes(data), step=step, size=size, init=init)


def _decode_string(body: str, i: int, end: int, line_no: int, data: bytearray) -> None:
    """Append to ``data`` the bytes that the characters ``body[i:end]``
    inside a string literal stand for, the first bad escape or character
    refused; a ``\\x`` escape reads its two digits from ``body``."""
    while i < end:
        ch = body[i]
        if ch == "\\":
            i += 1
            if i == end:
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
        elif ord(ch) > 0xFF:
            raise AsmSyntaxError(line_no, f"character {ch!r} is not a byte")
        else:
            data.append(ord(ch))
        i += 1
