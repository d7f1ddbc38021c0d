"""Metamorphic tests: edits that cannot matter to the certifier do not.

Inserting ``nop``s and renaming the scratch registers (every register but
``zero``, ``sp``, ``ra`` and those a hypothesis binds) leave every verdict,
and the kind of the failure reported, as they were.
"""

from __future__ import annotations

import random
import re

from aliascert import certify_program, parse_program
from aliascert.isa import FORMATS, RA, REG_INDEX, SP, ZERO, reg_name

from conftest import CORPUS
from genprogs import generate_source, kli_source, mutate_source

_LABEL = re.compile(r"\s*[A-Za-z_$][\w$]*:")
_BOUND = re.compile(r"([A-Za-z]\w*)\*?=")


def _instruction(line: str) -> tuple[str, str] | None:
    """``(prefix, text)`` of a line holding an instruction, the prefix its
    label and indentation; None for any other line."""
    code = line.split("#", 1)[0]
    m = _LABEL.match(code)
    prefix = m.group() if m else ""
    text = code[len(prefix):].strip()
    if not text or text.startswith("."):
        return None
    return prefix, text


def with_nops(source: str) -> str:
    """``source`` with a ``nop`` after every instruction."""
    out = []
    for line in source.split("\n"):
        out.append(line)
        if _instruction(line):
            out.append("    nop")
    return "\n".join(out)


def with_registers_permuted(source: str, seed: int) -> str:
    """``source`` with its scratch registers renamed by a permutation drawn
    from ``seed``."""
    lines = source.split("\n")
    bound = {ZERO, SP, RA}
    for line in lines:
        if line.startswith("#@ assume"):
            bound |= {REG_INDEX[name] for name in _BOUND.findall(line.split(":", 1)[1])
                      if name in REG_INDEX}
    scratch = sorted(set(range(32)) - bound)
    drawn = scratch[:]
    random.Random(seed).shuffle(drawn)
    rename = dict(zip(scratch, drawn))

    def reg(token: str) -> str:
        return reg_name(rename.get(REG_INDEX[token], REG_INDEX[token]))

    out = []
    for line in lines:
        found = _instruction(line)
        if found is None:
            out.append(line)
            continue
        prefix, text = found
        mnemonic, *operands = text.split()
        renamed = operands[:]
        for i, field in enumerate(FORMATS[mnemonic]):
            if field in ("rd", "rs", "rt"):
                renamed[i] = reg(operands[i])
            elif field == "mem":
                offset, base = operands[i][:-1].split("(")
                renamed[i] = f"{offset}({reg(base)})"
        out.append(line if renamed == operands
                   else f"{prefix}    {' '.join([mnemonic, *renamed])}")
    return "\n".join(out)


def _outcome(source: str) -> tuple[str, str | None]:
    report = certify_program(parse_program(source))
    return report.verdict, report.failures[0].kind if report.failures else None


def _programs():
    for path in sorted(CORPUS.glob("*.s")):
        yield path.read_text()
    for seed in range(100):
        for size in (12, 32):
            yield generate_source(seed, size)
    for seed in range(200):
        yield mutate_source(generate_source(seed, 32), seed)
    for k in range(4, 9):
        for unsafe in (False, True):
            yield kli_source(k, unsafe)


def test_nops_and_renamed_registers_leave_every_verdict():
    programs = list(_programs())
    outcomes = [_outcome(source) for source in programs]
    assert {"SAFE", "UNSAFE"} <= {verdict for verdict, _ in outcomes}
    renamed = 0
    for seed, (source, outcome) in enumerate(zip(programs, outcomes)):
        assert _outcome(with_nops(source)) == outcome, source
        permuted = with_registers_permuted(source, seed)
        renamed += permuted != source
        assert _outcome(permuted) == outcome, source
    assert renamed >= 0.9 * len(programs)
