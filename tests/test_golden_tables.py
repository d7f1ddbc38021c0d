"""Cell-exact reproduction of the worked-example annotation tables.

Each routine is certified standalone under its own entry hypotheses; the
resulting per-row annotations are rendered with the tables' display
convention (a cell keeps its last shown value until rebound) and compared
cell by cell against the transcriptions in golden_tables.py.
"""

from __future__ import annotations

import dataclasses

import pytest

from aliascert import certify_program
from aliascert.annot import Annotation
from aliascert.isa import REG_INDEX, SP

from conftest import load
from golden_tables import GOLDEN_TABLES


def cell_value(ann: Annotation, col: str) -> str:
    if col == "sp*":
        if ann.star is None:
            return ""
        assert ann.star == SP, "the stack pointer sits in sp throughout the corpus"
        t = ann.reg(ann.star)
    elif col.startswith("("):
        t = ann.slot(int(col[1:-1]))
    else:
        t = ann.reg(REG_INDEX[col])
    return str(t) if t is not None else ""


def render_table(program, cert, columns):
    """Rows of (machine, disasm, {col: shown}) under carry-forward display."""
    shown = {c: "" for c in columns}
    out = []

    def advance(ann):
        for c in columns:
            v = cell_value(ann, c)
            if v:
                shown[c] = v
        return dict(shown)

    out.append(("<entry>", None, advance(cert.entry)))
    for addr in sorted(cert.rows):
        row = cert.rows[addr]
        label = program.label_at(addr)
        if label is not None:
            out.append((f"{label}:", None, advance(row.pre)))
        out.append((program.source_lines[addr], str(row.chosen), advance(row.post)))
    return out


def expected_table(table):
    shown = {c: "" for c in table["columns"]}

    def advance(changes):
        shown.update(changes)
        return dict(shown)

    out = [("<entry>", None, advance(table["entry"]))]
    for machine, disasm, changes in table["rows"]:
        out.append((machine, disasm, advance(changes)))
    return out


@pytest.mark.parametrize("table", GOLDEN_TABLES, ids=lambda t: t["entry_label"])
def test_golden_table(table):
    program = load("hello.s")
    report = certify_program(dataclasses.replace(program, entry=table["entry_label"]))
    assert report.safe, report.failures
    cert = report.theory.routines[report.theory.entry_key]

    actual = render_table(program, cert, table["columns"])
    expected = expected_table(table)
    # the display skips label rows the source table leaves blank
    actual = [r for r in actual
              if not (r[0].endswith(":") and r[0] not in {e[0] for e in expected})]

    assert len(actual) == len(expected), (
        f"{table['entry_label']}: {len(actual)} rows rendered, "
        f"{len(expected)} transcribed")
    for (am, ad, acells), (em, ed, ecells) in zip(actual, expected):
        assert am == em, f"row order: rendered {am!r}, transcribed {em!r}"
        if ed is not None:
            assert ad == ed, f"{am}: disassembled to {ad!r}, table shows {ed!r}"
        for col in table["columns"]:
            assert acells[col] == ecells[col], (
                f"{table['entry_label']}, row {am!r}, column {col}: "
                f"certifier shows {acells[col]!r}, table shows {ecells[col]!r}")


def test_blank_label_rows_carry_state():
    # the join label inside the loop displays no cells; its recorded
    # annotation must therefore equal the carried-forward display
    program = load("hello.s")
    report = certify_program(dataclasses.replace(program, entry="printstr"))
    cert = report.theory.routines[report.theory.entry_key]
    b_addr = program.labels["$B"]
    prev_addr = max(a for a in cert.rows if a < b_addr)
    assert cert.rows[b_addr].pre == cert.rows[prev_addr].post
