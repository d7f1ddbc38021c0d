"""Stability of the trace oracle's violations on mutated theories.

``oracle_digests.json`` holds, per program, the sha256 of the text of
every violation ``check_program`` reports, in order, over a fixed family
of mutations of the program's SAFE theory: each row's reading replaced by
each instruction of ``REPLACEMENTS``, each row deleted in turn, and each
routine's recorded exit replaced by a different annotation.  The programs
are the SAFE corpus, ``quickgen`` seeds and a call-site program.  Any
change to which violations the oracle finds, their wording or their
order shows up as a changed digest.

Regenerate the fixture (only when a change to the oracle's output is
intended) with ``PYTHONPATH=src python tests/test_oracle_digests.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from aliascert import certify_program, check_program, parse_program
from aliascert.traces import check_stack_pointer
from aliascert.annot import C0, U0, Annotation, rep
from aliascert.certifier import Theory
from aliascert.disasm import StackInstr
from aliascert.isa import GP, RA, V0, V1, ZERO

from genprogs import call_sites, generate_source

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
FIXTURE = HERE / "oracle_digests.json"

QUICKGEN_SEEDS = range(10)
CALL_SITES_SIZE = 80

# ``ifnz`` branches back to the routine's entry: its target is filled in
# per routine.
REPLACEMENTS = (
    StackInstr("put", rd=RA, n=4),
    StackInstr("get", rd=V0, n=0),
    StackInstr("push", n=8),
    StackInstr("nop"),
    StackInstr("return", rd=RA),
    StackInstr("cspf", rs=GP),
    StackInstr("rspf", rs=GP),
    StackInstr("ifnz", rd=ZERO),
    StackInstr("newh", rd=V0, n=4, offs=frozenset({0})),
    StackInstr("putx", rd=ZERO, rs=V0, n=0),
    StackInstr("cspt", rd=GP),
)


def _cases():
    for path in sorted(CORPUS.glob("*.s")):
        yield f"corpus/{path.name}", path.read_text()
    for seed in QUICKGEN_SEEDS:
        yield f"quickgen/{seed:02d}", generate_source(seed)
    yield f"call_sites_{CALL_SITES_SIZE}", call_sites(CALL_SITES_SIZE)


def _with_cert(theory: Theory, key: str, **changes) -> Theory:
    routines = dict(theory.routines)
    routines[key] = dataclasses.replace(routines[key], **changes)
    return Theory(theory.program, theory.entry_key, routines)


def _other_exit(cert):
    ann = cert.exit_ann if cert.exit_ann is not None else cert.entry
    return ann.set_reg(V1, C0 if ann.reg(V1) == U0 else U0)


def _mutants(theory: Theory):
    for key, cert in theory.routines.items():
        for addr, row in cert.rows.items():
            for s in REPLACEMENTS:
                if s.op == "ifnz":
                    s = dataclasses.replace(s, target=cert.entry_addr)
                rows = dict(cert.rows)
                rows[addr] = dataclasses.replace(row, chosen=s)
                yield _with_cert(theory, key, rows=rows)
            rows = {a: r for a, r in cert.rows.items() if a != addr}
            yield _with_cert(theory, key, rows=rows)
        yield _with_cert(theory, key, exit_ann=_other_exit(cert))


def oracle_digest(theory: Theory) -> str:
    h = hashlib.sha256()
    for mutant in _mutants(theory):
        for v in check_program(mutant):
            h.update(str(v).encode() + b"\n")
        h.update(b"--\n")
    return h.hexdigest()


def compute_digests() -> dict[str, str]:
    out = {}
    for key, source in _cases():
        report = certify_program(parse_program(source))
        if not report.safe:
            assert key.startswith("corpus/"), key
            continue
        out[key] = oracle_digest(report.theory)
    return out


def test_the_row_mutations_keep_the_stack_pointer_invariant():
    # a mutation replaces or deletes a row's reading, or changes v1 at an
    # exit, and leaves every starred type as the search bound it: the
    # stack pointer's pass, kept apart from the digests above, finds
    # nothing on any of them, and flags each row whose pre binds a string
    # pointer there instead
    for key, source in _cases():
        report = certify_program(parse_program(source))
        if not report.safe:
            continue
        theory = report.theory
        assert check_stack_pointer(theory) == [], key
        assert all(check_stack_pointer(mutant) == [] for mutant in _mutants(theory)), key
        for cert_key, cert in theory.routines.items():
            addr = min((a for a, r in cert.rows.items() if r.pre.star is not None), default=None)
            if addr is None:
                continue
            row = cert.rows[addr]
            broken = Annotation(row.pre.star, row.pre.set_reg(row.pre.star, rep(1, offs=(0,))).regs)
            rows = dict(cert.rows)
            rows[addr] = dataclasses.replace(row, pre=broken)
            found = check_stack_pointer(_with_cert(theory, cert_key, rows=rows))
            assert [(v.equation, v.addr) for v in found] == [("(sp)", addr)], key


def test_oracle_violations_match_recorded_digests():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
