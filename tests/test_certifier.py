from __future__ import annotations

import dataclasses

import pytest

from aliascert import certifier, certify_program, check_program, check_safety, parse_program
from aliascert.annot import C0, U0, Annotation, Calc, Rep, TypeVar, Uncalc, calc, uncalc
from aliascert.cli import _print_report, build_report
from aliascert.disasm import StackInstr
from aliascert.isa import GP, RA, SP, V0, V1, REG_INDEX

from conftest import load
from genprogs import (call_chain, generate_source, kli_branch_source, kli_callee_source,
                      kli_move_source, kli_source, mutate_source)
from test_report_digests import _cases as report_digest_cases

SEARCH_FAMILIES = (kli_source, kli_move_source, kli_branch_source, kli_callee_source)

A0 = REG_INDEX["a0"]
FP = REG_INDEX["fp"]


def test_good_frame_restore_certifies(corpus_programs):
    report = certify_program(corpus_programs["foo_good"])
    assert report.verdict == "SAFE"
    cert = report.theory.routines[report.theory.entry_key]
    assert cert.exit_ann.star_type() == C0


def test_arithmetic_restore_has_no_reading(corpus_programs):
    p = corpus_programs["foo_bad"]
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert failure.kind == "NoDisassembly"
    # the failing address is the restoring addiu
    assert p.source_lines[failure.addr] == "addiu sp sp 32"


def test_string_vs_array_vs_mixed_access(corpus_programs):
    assert certify_program(corpus_programs["table2_right"]).verdict == "SAFE"
    assert certify_program(corpus_programs["table2_middle"]).verdict == "UNSAFE"
    left = certify_program(corpus_programs["table2_left"])
    assert left.verdict == "SAFE"
    cert = left.theory.routines[left.theory.entry_key]
    chosen = {str(r.chosen) for r in cert.rows.values()}
    assert "newh v0 table 3" in chosen  # certifies under the array reading


def test_backtracking_reports_deepest_failure(corpus_programs):
    report = certify_program(corpus_programs["table2_middle"])
    (failure,) = report.failures
    assert corpus_programs["table2_middle"].source_lines[failure.addr] == "addiu v0 v0 2"


def test_call_continuation_matches_convention(hello, hello_report):
    theory = hello_report.theory
    main = theory.routines[theory.entry_key]
    site = next(a for a, r in main.rows.items() if str(r.chosen) == "gosub printstr")
    row = main.rows[site]
    # fresh return address; argument and scratch registers from the callee
    assert row.post.reg(RA) == U0
    assert row.post.reg(A0) == C0
    assert row.post.reg(GP) == C0
    assert row.post.reg(V0) == C0
    assert str(row.post.reg(V1)) == "u^1!{0}"
    # the caller's frame and slots come back untouched
    assert row.post.star_type() == row.pre.star_type()
    assert row.post.slots == row.pre.slots


def test_handle_call_halt_exit(hello_report):
    theory = hello_report.theory
    row = theory.routines[theory.entry_key].rows[0x400024]
    assert str(row.chosen) == "gosub halt"
    assert str(row.post.reg(V1)) == "u^1!{0}"
    assert row.post.star_type() == row.pre.star_type() == calc(32, 0, offs=[16, 24, 28])


NO_STACK_POINTER_CALL = (
    "#@ entry main\n#@ assume main: ra=u^0\n"
    "main:\n  move gp ra\n  jal f\n  move ra gp\n  jr ra\n"
    "f:\n  jr ra\n")


def test_call_without_a_stack_pointer_fails_at_the_call_site():
    # no register holds the stack pointer, so the callee gets no frame
    p = parse_program(NO_STACK_POINTER_CALL)
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert (failure.kind, failure.addr, failure.rule) == ("NoDisassembly", 0x400004, "jal f")
    assert failure.detail == "gosub f: no register holds the stack pointer"


def test_recursive_call_unsupported():
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  jal main\n  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSUPPORTED"
    assert report.failures[0].kind == "RecursionUnsupported"


def test_nested_recursive_call_unsupported():
    # main calls f, and f calls itself
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  move gp ra\n  jal f\n  move ra gp\n  jr ra\n"
        "f:\n  move t0 ra\n  jal f\n  move ra t0\n  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSUPPORTED"
    assert report.failures[0].kind == "CalleeUnsafe"
    assert "f: RecursionUnsupported at 0x00400014" in report.failures[0].detail


# g fails deeper under the string reading of `li t0 s` than anything after
# it; under the array reading g returns and the call of f meets a cycle
_CYCLE_AFTER_A_DEEPER_FAILURE = (
    "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -8\n  sw ra 4(sp)\n  li t0 s\n"
    "  jal g\n  jal f\n  lw ra 4(sp)\n  move sp gp\n  jr ra\n"
    "g:\n" + "  nop\n" * 8 + "  lw t1 4(t0)\n  jr ra\n"
    "f:\n  move s0 sp\n  addiu sp sp -8\n  sw ra 4(sp)\n  jal f\n  lw ra 4(sp)\n"
    "  move sp s0\n  jr ra\n"
    's: .bytes "abcdefgh" step=1\n')


def test_an_unsupported_verdict_names_the_call_cycle_that_makes_it(capsys):
    report = certify_program(parse_program(_CYCLE_AFTER_A_DEEPER_FAILURE))
    assert report.verdict == "UNSUPPORTED"
    (failure,) = report.failures
    assert failure.recursion
    detail = "f: RecursionUnsupported at 0x00400058 [gosub f]: call cycle through f"
    rep = build_report("cycle.s", "main", "small-structs", report)
    assert rep["failures"] == [
        {"address": 0x00400014, "rule": "gosub f", "kind": "CalleeUnsafe", "detail": detail}]
    _print_report(rep)
    assert capsys.readouterr().out == \
        f"failure: CalleeUnsafe at 0x00400014 [gosub f]: {detail}\n\nverdict: UNSUPPORTED\n"


@pytest.mark.parametrize("callee", ["leaf", "RecursionUnsupported"])
def test_verdict_does_not_depend_on_a_label_name(callee):
    # the callee reads a slot of its empty frame: UNSAFE, whatever its name
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        f"main:\n  move gp ra\n  jal {callee}\n  move ra gp\n  jr ra\n"
        f"{callee}:\n  lw t0 0(sp)\n  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "CalleeUnsafe"


def test_callee_must_restore_stack():
    # the callee returns with a frame still pushed
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  jal leaker\n  jr ra\n"
        "leaker:\n  addiu sp sp -16\n  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "StackNotRestored"


def test_return_register_must_hold_return_address():
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  move v0 zero\n  jr v0\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "ReturnRegisterNotU0"


def test_join_requires_identical_annotations():
    # one arm writes a new offset, so the join sees two different frames
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n"
        "  move gp sp\n"
        "  addiu sp sp -8\n"
        "  sw zero 0(sp)\n"
        "  bnez zero skip\n"
        "  sw zero 4(sp)\n"
        "skip:\n"
        "  move sp gp\n"
        "  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "AnnotationMismatch"


def test_loop_that_grows_frame_each_pass_rejected():
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, v0=c^[0]\n"
        "main:\n"
        "loop:\n"
        "  addiu sp sp -8\n"
        "  bnez v0 loop\n"
        "  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "AnnotationMismatch"


def test_missing_entry_is_unsupported():
    p = parse_program("#@ entry main\nmain:\n  jr ra\nmsg:\n  .bytes 1 2\n")
    for program, entry, message in [
        (parse_program("nop\n"), None, "program has no entry pragma and no entry was given"),
        (p, "nosuch", "entry label 'nosuch' is not defined"),
        (p, "msg", "entry label 'msg' does not mark an instruction"),
    ]:
        report = certify_program(dataclasses.replace(program, entry=entry))
        assert report.verdict == "UNSUPPORTED" and report.theory is None
        assert [(f.kind, f.detail) for f in report.failures] == [("UnreachableEntry", message)]


def test_unbound_return_register_is_named_unbound():
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0]!{0}, (0)=u^0\n"
                      "main:\n  jr ra\n")
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (f,) = report.failures
    assert (f.kind, f.detail) == ("ReturnRegisterNotU0", "register ra is unbound")


def test_default_entry_annotation():
    p = parse_program("#@ entry main\nmain:\n  jr ra\n")
    report = certify_program(p)
    assert report.safe
    entry = report.theory.routines[report.theory.entry_key].entry
    assert entry.star == SP and entry.reg(SP) == C0
    assert entry.reg(RA) == U0 and entry.reg(0) == C0


# -- byte policy ---------------------------------------------------------------

def test_forbid_policy_blocks_byte_access(corpus_programs):
    report = certify_program(dataclasses.replace(load("hello.s"), entry="halt"), policy="forbid")
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "NoDisassembly"


def test_safety_recheck_under_other_policy(hello_report):
    # certified under small structs; a re-check with bytes forbidden flags
    # exactly the byte accesses
    violations = check_safety(hello_report.theory, policy="forbid")
    kinds = {v.kind for v in violations}
    assert kinds == {"BytePolicyForbidden"}
    ops = {v.rule.split()[0] for v in violations}
    assert ops == {"getbx", "sbth"}
    assert check_safety(hello_report.theory, policy="small-structs") == []
    assert check_safety(hello_report.theory, policy="permissive") == []


def test_small_structs_blocks_wide_string_bytes():
    p = parse_program(
        "#@ entry main\n#@ assume main: ra=u^0\n"
        "main:\n  li v0 msg\n  lb a0 0(v0)\n  jr ra\n"
        "msg:\n  .bytes \"abcdefgh\" step=4\n")
    assert certify_program(p, policy="small-structs").verdict == "UNSAFE"
    assert certify_program(p, policy="permissive").verdict == "SAFE"


# Each byte reading as the search meets it: ``rs`` is the base of an
# indexed read or write; ``getb``/``putb`` go through the stack pointer.
_BYTE_READINGS = (StackInstr("getb", rd=V0, n=0), StackInstr("putb", rd=V0, n=0),
                  *(StackInstr(op, rd=V0, rs=A0, n=0)
                    for op in ("getbx", "putbx", "lbfh", "sbth")))
_BASES = {"c^[0]": C0, "c^[8]": calc(8),
          "c^rep(1)": Calc(Rep(1)), "c^rep(2)": Calc(Rep(2)), "c^rep(3)": Calc(Rep(3)),
          "c^rep(4)": Calc(Rep(4)), "c^rep(5)": Calc(Rep(5)),
          "u^1": uncalc(1), "u^2": uncalc(2), "u^3": uncalc(3), "u^4": uncalc(4),
          "u^5": uncalc(5), "?T": TypeVar("T"), "None": None}
# small-structs: the message for a string reading (getbx, putbx) and for an
# array reading (lbfh, sbth) through each base; None where it is admitted
_SMALL_STRUCTS = {
    "c^[0]": ("string step must be < 4 for byte access, base c^[0]",
              "array size must be < 4 for byte access, base c^[0]"),
    "c^[8]": ("string step must be < 4 for byte access, base c^[8]",
              "array size must be < 4 for byte access, base c^[8]"),
    "c^rep(1)": (None, "array size must be < 4 for byte access, base c^rep(1)"),
    "c^rep(2)": (None, "array size must be < 4 for byte access, base c^rep(2)"),
    "c^rep(3)": (None, "array size must be < 4 for byte access, base c^rep(3)"),
    "c^rep(4)": ("string step must be < 4 for byte access, base c^rep(4)",
                 "array size must be < 4 for byte access, base c^rep(4)"),
    "c^rep(5)": ("string step must be < 4 for byte access, base c^rep(5)",
                 "array size must be < 4 for byte access, base c^rep(5)"),
    "u^1": ("string step must be < 4 for byte access, base u^1", None),
    "u^2": ("string step must be < 4 for byte access, base u^2", None),
    "u^3": ("string step must be < 4 for byte access, base u^3", None),
    "u^4": ("string step must be < 4 for byte access, base u^4",
            "array size must be < 4 for byte access, base u^4"),
    "u^5": ("string step must be < 4 for byte access, base u^5",
            "array size must be < 4 for byte access, base u^5"),
    "?T": ("string step must be < 4 for byte access, base ?T",
           "array size must be < 4 for byte access, base ?T"),
    "None": ("string step must be < 4 for byte access, base register a0 is unbound",
             "array size must be < 4 for byte access, base register a0 is unbound"),
}


def _expected_policy_message(op: str, policy: str, base: str) -> str | None:
    if policy == "permissive":
        return None
    if policy == "forbid":
        return "byte access is disabled by policy"
    if op in ("getb", "putb"):
        return "byte access to the word-written stack"
    return _SMALL_STRUCTS[base][op in ("lbfh", "sbth")]


def _recheck_message(s, ann, policy, program):
    """The byte-policy message ``check_safety`` gives for one row."""
    cert = certifier.RoutineCert("main", "main", 0x00400000, ann,
                                 {0x00400000: certifier.Row(ann, s, ann)}, None)
    theory = certifier.Theory(program, "main", {"main": cert})
    found = [f.detail for f in check_safety(theory, policy) if f.kind == "BytePolicyForbidden"]
    assert len(found) <= 1
    return found[0] if found else None


def test_byte_policy_rule_and_messages_are_pinned():
    # every byte reading under every policy and base: the search admits a
    # reading exactly when the re-check has no message for it, and each
    # message is the text in the table
    program = parse_program("#@ entry main\nmain:\n  jr ra\n")
    for s in _BYTE_READINGS:
        for policy in certifier.BYTE_POLICIES:
            for text, base in _BASES.items():
                regs = {SP: C0} if base is None else {SP: C0, A0: base}
                ann = Annotation.make(star=SP, regs=regs)
                message = _recheck_message(s, ann, policy, program)
                case = (s.op, policy, text)
                assert message == _expected_policy_message(s.op, policy, text), case
                assert certifier._policy_allows(s, ann, policy) == (message is None), case


def test_boundary_write_at_frame_edge():
    # a word write at offset frame-4 is admitted; at frame it is not
    p_ok = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  move gp sp\n  addiu sp sp -8\n  sw zero 4(sp)\n"
        "  move sp gp\n  jr ra\n")
    assert certify_program(p_ok).verdict == "SAFE"
    p_bad = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
        "main:\n  move gp sp\n  addiu sp sp -8\n  sw zero 8(sp)\n"
        "  move sp gp\n  jr ra\n")
    report = certify_program(p_bad)
    assert report.verdict == "UNSAFE"
    assert report.failures[0].kind == "NoDisassembly"


def test_choices_on_a_branch_target_are_settled():
    # The branch target is walked first and keeps its first reading of
    # `li` (a string).  The fall-through then needs the array reading, and
    # the two exits disagree.  The failure goes back to the branch and
    # beyond, never to the target side's `li`: the search is depth-first
    # over the paths as walked, so the program is UNSAFE even though
    # reading both `li` as arrays would certify.
    p = parse_program(
        "#@ entry main\n#@ assume main: ra=u^0\n"
        "main:\n  bnez zero side\n  li t0 table\n  lb a0 2(t0)\n  jr ra\n"
        "side:\n  li t0 table\n  move a0 zero\n  jr ra\n"
        'table:\n  .bytes "xy\\0"\n')
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert (failure.kind, failure.addr) == ("AnnotationMismatch", 0x0040000C)
    assert "c^rep(1)!{0} with u^3!{0,1,2}" in failure.detail


# -- search: backjumping, counters, budget --------------------------------------

def test_kli_readings_stay_within_a_quadratic():
    # the chronological search tries about 2^k combinations of readings;
    # backjumping goes straight back to the `li` a rejecting read names
    for k in range(4, 25):
        for unsafe in (False, True):
            report = certify_program(parse_program(kli_source(k, unsafe)))
            assert report.verdict == ("UNSAFE" if unsafe else "SAFE"), k
            stats = report.stats
            assert stats.readings <= 2 * k * k, (k, unsafe, stats)
            assert (stats.backtracks, stats.backjumps) == (k, k - 1), (k, unsafe, stats)


def test_kli_variants_certify_at_k_24():
    for make in (kli_move_source, kli_branch_source, kli_callee_source):
        for unsafe in (False, True):
            report = certify_program(parse_program(make(24, unsafe)))
            assert report.verdict == ("UNSAFE" if unsafe else "SAFE"), make.__name__
            assert report.stats.readings <= 2 * 24 * 24, (make.__name__, report.stats)


def test_rejected_readings_are_not_rendered_and_effects_are_read_once(monkeypatch):
    # every li's string reading is rejected by a later read: the search
    # renders no type but the entry's, for the routine's key, and reads
    # each instruction's effects at most once per stack-pointer register
    program = parse_program(kli_source(13, False))
    rendered, read = [], []
    for cls in (Calc, Uncalc):
        monkeypatch.setattr(cls, "__str__",
                            lambda t, show=cls.__str__: rendered.append(t) or show(t))
    monkeypatch.setattr(certifier, "_effects",
                        lambda i, star, read_=certifier._effects:
                        read.append((id(i), star)) or read_(i, star))
    report = certify_program(program)
    assert report.verdict == "SAFE" and report.stats.backtracks == 13
    searched = rendered[:]
    rendered.clear()
    str(certifier.entry_annotation_for(program))
    assert len(searched) == len(rendered)
    assert read and len(read) == len(set(read))


def _outcome(program):
    report = certify_program(program)
    rows = report.theory and {key: [(a, str(row.chosen)) for a, row in sorted(cert.rows.items())]
                              for key, cert in report.theory.routines.items()}
    return report.verdict, [str(f) for f in report.failures], rows, report.stats.backjumps


def test_backjumping_agrees_with_the_chronological_search(corpus_programs, monkeypatch):
    # the same verdict, failures and chosen rows as a search that goes back
    # to the latest open choice on every failure, on the corpus, the k-li
    # families and mutants of generated programs, many of them UNSAFE
    families = [parse_program(make(k, unsafe)) for make in SEARCH_FAMILIES
                for k in range(4, 9) for unsafe in (False, True)]
    mutants = [parse_program(mutate_source(generate_source(seed, 24), seed))
               for seed in range(300)]
    programs = [*corpus_programs.values(), *families, *mutants]
    backjumping = [_outcome(p) for p in programs]
    assert sum(verdict == "UNSAFE" for verdict, *_ in backjumping[-len(mutants):]) >= 50
    assert sum(jumps > 0 for *_, jumps in backjumping[-len(mutants):]) >= 10
    monkeypatch.setattr(certifier._Walk, "_conflicts", lambda self, addr, star: self._open())
    chronological = [_outcome(p) for p in programs]
    assert all(jumps == 0 for *_, jumps in chronological)
    assert [o[:3] for o in backjumping] == [o[:3] for o in chronological]


def test_failure_after_an_ended_path_steps_back_chronologically():
    # the failing read is on the fall-through, after the branch target has
    # returned and recorded the exit annotation every later return must
    # match, so no open choice before the branch is skipped
    p = parse_program(
        "#@ entry main\n#@ assume main: ra=u^0\n"
        "main:\n  li t0 table\n  li t1 table\n  bnez zero side\n"
        "  lb a0 1(t0)\n  jr ra\n"
        "side:\n  move a0 zero\n  jr ra\n"
        'table:\n  .bytes "xy\\0"\n')
    report = certify_program(p)
    assert report.verdict == "SAFE"
    assert (report.stats.backtracks, report.stats.backjumps) == (2, 0)


# fp enters as a type variable, so the join at `skip` binds it to the
# reading the `li` takes
_JOIN_BINDS = ("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, fp=?x, t0=c^[0]\n"
               "main:\n  bnez t0 skip\n  li fp blob\n{tail}skip:\n  jr ra\n"
               'blob:\n  .bytes "abcd"\n')


def test_join_binds_a_type_variable():
    report = certify_program(parse_program(_JOIN_BINDS.format(tail="")))
    assert report.verdict == "SAFE"
    (cert,) = report.theory.routines.values()
    assert str(cert.entry) == "zero=c^[0], t0=c^[0], sp*=c^[0], fp=c^rep(1)!{0}, ra=u^0"
    assert cert.exit_ann == cert.entry
    assert all(row.pre == cert.entry for row in cert.rows.values())
    assert check_program(report.theory) == []
    assert check_safety(report.theory) == []


def test_failure_while_a_type_variable_is_bound():
    # the second branch's join binds fp to the string reading, and the word
    # read on its fall-through then fails while that binding is in force:
    # the search goes back to the `li`, whose array reading certifies
    tail = "  bnez t0 skip\n  lw t0 0(fp)\n  jr ra\n"
    report = certify_program(parse_program(_JOIN_BINDS.format(tail=tail)))
    assert report.verdict == "SAFE"
    assert (report.stats.backtracks, report.stats.backjumps) == (1, 0)
    (cert,) = report.theory.routines.values()
    assert str(cert.entry.reg(REG_INDEX["fp"])) == "u^4!{0,1,2,3}"
    assert [str(cert.rows[a].chosen) for a in sorted(cert.rows)][1:4] == \
        ["newh fp blob 4", "ifnz t0 skip", "lwfh t0 0(fp)"]
    assert check_program(report.theory) == []


def test_search_budget_gives_unsupported(monkeypatch):
    program = parse_program(kli_source(10, False))
    needed = certify_program(program).stats.readings
    monkeypatch.setattr(certifier, "SEARCH_BUDGET", needed // 2)
    report = certify_program(program)
    assert report.verdict == "UNSUPPORTED"
    assert report.theory is None
    (failure,) = report.failures
    assert failure.kind == "SearchBudgetExhausted"
    assert report.stats.readings > needed // 2


def test_a_failure_holds_its_callee_failure():
    # the record of the cycle.s failure: the call of f, whose own failure
    # is the cycle; the recursion is read off the callee, not stored twice
    report = certify_program(parse_program(_CYCLE_AFTER_A_DEEPER_FAILURE))
    (failure,) = report.failures
    callee = failure.callee
    assert (failure.kind, failure.addr, failure.note) == ("CalleeUnsafe", 0x00400014, "f")
    assert (callee.kind, callee.addr, callee.callee) == ("RecursionUnsupported", 0x00400058, None)
    assert failure.recursion and callee.recursion
    assert report.verdict == "UNSUPPORTED"


def _chain_with_an_unsafe_leaf(depth: int) -> str:
    """:func:`genprogs.call_chain` whose leaf loads past its frame."""
    head, leaf = call_chain(depth).split(f"f{depth}:\n")
    return (head + f"f{depth}:\n"
            + leaf.replace("    sw t0 0(sp)\n", "    sw t0 0(sp)\n    lw t1 8(sp)\n", 1))


def test_a_callee_failure_is_followed_down_to_the_leaf():
    program = parse_program(_chain_with_an_unsafe_leaf(20))
    report = certify_program(program)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    for depth in range(1, 21):
        assert failure.kind == "CalleeUnsafe" and not failure.recursion, depth
        assert failure.note == f"f{depth}"
        failure = failure.callee
    assert (failure.kind, failure.callee) == ("NoDisassembly", None)
    assert program.source_lines[failure.addr] == "lw t1 8(sp)"
    assert failure.rejected == (("get t1 8", "offset 8 outside [0, 8-4]"),)


def test_a_failure_is_rendered_only_by_its_report(monkeypatch, capsys):
    # the search keeps each failure as a record; the report renders the
    # nested text once, one level per callee
    program = parse_program(_chain_with_an_unsafe_leaf(20))
    rendered = []
    monkeypatch.setattr(certifier.Failure, "__str__",
                        lambda f, show=certifier.Failure.__str__: rendered.append(f) or show(f))
    report = certify_program(program)
    assert report.verdict == "UNSAFE" and rendered == []
    rep = build_report("chain.s", "main", "small-structs", report)
    assert len(rendered) == 20
    assert rep["failures"][0]["detail"].startswith("f1: CalleeUnsafe at 0x")
    _print_report(rep)
    assert len(rendered) == 21
    assert capsys.readouterr().out.startswith("failure: CalleeUnsafe at 0x00400010 [gosub f1]: ")


@pytest.mark.parametrize("policy, rejected", [
    ("forbid", ()),
    ("small-structs", (("lbfh a0 3(t5)", "offset 3 outside [0, 3-1]"),)),
    ("permissive", (("lbfh a0 3(t5)", "offset 3 outside [0, 3-1]"),
                    ("getbx a0 3(t5)", "base t5 is not a string pointer: u^3!{0,1,2}"))),
])
def test_a_missing_reading_holds_each_reading_it_rejected(policy, rejected):
    # forbid refuses the first byte read before any reading is tried
    program = parse_program(kli_source(10, True))
    (failure,) = certify_program(program, policy).failures
    assert failure.kind == "NoDisassembly"
    assert failure.rejected == rejected
    if rejected:
        assert program.source_lines[failure.addr] == "lb a0 3(t5)"
        assert failure.detail == "; ".join(f"{reading}: {why}" for reading, why in rejected)
    else:
        assert failure.detail == "no stack-machine reading exists"


_STRINGS = ('table:\n  .bytes "xy\\0"\nwide:\n  .bytes "xyz\\0"\n'
            'msg:\n  .bytes "abcdef\\0"\n')


@pytest.mark.parametrize("body,kind,addr,detail", [
    # the other reading of t0 (an array) fails the `addiu` that steps it;
    # a row that inspects types keeps t0's `li` from being skipped, so the
    # callee ends in the error the chronological search ends in
    ("  nop\n" * 7 + "  jal f\n  jr ra\n"
     "f:\n  li t1 table\n  li t0 msg\n  addiu t0 t0 1\n  lb a0 5(t1)\n  jr ra\n",
     "CalleeUnsafe", 0x0040001C, "f: NoDisassembly at 0x0040002c [addiu t0 t0 1]"),
    # the branch target joins the loop head again; the other reading of
    # t0 fails that join at the same depth as the read, later in the search
    ("  li t1 table\n  li t0 table\nloop:\n  bnez zero side\n  lb a0 5(t1)\n  jr ra\n"
     "side:\n  li t0 wide\n  j loop\n",
     "AnnotationMismatch", 0x00400008, "join at loop: cannot unify u^3!{0,1,2} with u^4"),
    # t2's `li` takes its array reading after the word store failed on
    # t1; the byte store then fails on that reading, and the conflict the
    # row carries sends the search back to t1's `li`
    ("  li t0 msg\n  li t1 msg\n  li t2 msg\n  sb zero 0(t2)\n  sw t1 0(t1)\n"
     "  sw t1 0(t1)\n  jr ra\n",
     "NoDisassembly", 0x00400010, "swth t1 0(t1): stored value t1 must be calculated"),
])
def test_backjumping_reports_the_chronological_failure(body, kind, addr, detail):
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\nmain:\n"
                      + body + _STRINGS)
    report = certify_program(p)
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert (failure.kind, failure.addr) == (kind, addr)
    assert failure.detail.startswith(detail)


# -- failure messages -----------------------------------------------------------

_T0 = "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, t0=c^[0]\nmain:\n"


@pytest.mark.parametrize("body,failure", [
    # t1 is bound on the fall-through only
    ("  bnez t0 L\n  li t1 5\nL:\n  jr ra\n",
     "AnnotationMismatch at 0x00400008: join at L: cannot unify registers {t1} with bound on "
     "one path only (recorded: zero=c^[0], t0=c^[0], sp*=c^[0], ra=u^0; "
     "incoming: zero=c^[0], t0=c^[0], t1=u^1, sp*=c^[0], ra=u^0)"),
    ("  j 0x400100\n", "NoInstruction at 0x00400100: control flow left the code segment"),
    ("  addu t0 sp t1\n  jr ra\n",
     "NoDisassembly at 0x00400000 [addu t0 sp t1]: "
     "addop t0 sp t1: register sp holds the stack pointer"),
    ("  addiu t0 t1 4\n  jr ra\n",
     "NoDisassembly at 0x00400000 [addiu t0 t1 4]: addaiu t0 t1 4: register t1 is unbound"),
    # the callee loops forever, so the call has no continuation
    ("  move gp ra\n  jal f\n  move ra gp\n  jr ra\nf:\n  j f\n",
     "CalleeUnsafe at 0x00400004 [gosub f]: f never returns"),
    # a word access off a word boundary: at an offset, below a frame that
    # is no whole number of words, or through a string stepped by one
    ("  move gp sp\n  addiu sp sp -8\n  sw ra 1(sp)\n  lw ra 1(sp)\n  move sp gp\n  jr ra\n",
     "NoDisassembly at 0x00400008 [sw ra 1(sp)]: put ra 1: word offset 1 is not a multiple of 4"),
    ("  move gp sp\n  addiu sp sp -6\n  sw t0 0(sp)\n  move sp gp\n  jr ra\n",
     "NoDisassembly at 0x00400004 [addiu sp sp -6]: push 6: frame 6 is not a multiple of 4"),
    ("  li t1 msg\n  addiu t1 t1 6\n  sw t0 0(t1)\n  jr ra\nmsg:\n  .bytes step=6\n",
     "NoDisassembly at 0x00400008 [sw t0 0(t1)]: swth t0 0(t1): base t1 is not an array "
     "pointer: c^rep(6); putx t0 0(t1): word access through string step 6, not a multiple of 4"),
])
def test_failure_names_its_rule(body, failure):
    report = certify_program(parse_program(_T0 + body))
    assert report.verdict == "UNSAFE"
    assert [str(f) for f in report.failures] == [failure]


def test_unknown_policy_is_refused_by_search_and_recheck(hello_report):
    with pytest.raises(ValueError, match="unknown byte policy 'bogus'"):
        certify_program(hello_report.theory.program, policy="bogus")
    with pytest.raises(ValueError, match="unknown byte policy 'bogus'"):
        check_safety(hello_report.theory, "bogus")


# -- the safety re-check on theories the search would not produce ---------------

_FRAME = _T0 + ("  move gp sp\n  addiu sp sp -8\n  sw zero 4(sp)\n  lw t1 4(sp)\n"
                "  move sp gp\n  jr ra\n")
_PUT, _GET = 0x00400008, 0x0040000C


@pytest.mark.parametrize("addr,change,oracle,safety", [
    # the frame records no write before the read
    (_GET, lambda row: {"pre": row.pre.set_reg(SP, calc(8, 0))},
     "theory at 0x0040000c: recorded annotation disagrees with event fold: recorded "
     "zero=c^[0], t0=c^[0], gp=c^[0], sp*=c^[8,0], ra=u^0, (4)=c^[0]; folded "
     "zero=c^[0], t0=c^[0], gp=c^[0], sp*=c^[8,0]!{4}, ra=u^0, (4)=c^[0]",
     "ReadBeforeWrite at 0x0040000c [get t1 4]: read at offset 4 precedes any write there"),
    # the write lands past the 8-byte frame
    (_PUT, lambda row: {"chosen": dataclasses.replace(row.chosen, n=8)},
     "eq8 at 0x00400008: write 8 outside [0, 8-4]",
     "OutOfBounds at 0x00400008 [put zero 8]: offset 8 outside [0, 8-4]"),
    # no register holds the stack pointer
    (_GET, lambda row: {"pre": Annotation.make(regs={RA: U0})},
     "theory at 0x0040000c: recorded annotation disagrees with event fold: recorded "
     "ra=u^0; folded zero=c^[0], t0=c^[0], gp=c^[0], sp*=c^[8,0]!{4}, ra=u^0, (4)=c^[0]",
     "MissingBase at 0x0040000c [get t1 4]: no type for the base register"),
])
def test_safety_recheck_flags_a_mutated_theory(addr, change, oracle, safety, capsys):
    report = certify_program(parse_program(_FRAME))
    assert report.safe
    (cert,) = report.theory.routines.values()
    cert.rows[addr] = dataclasses.replace(cert.rows[addr], **change(cert.rows[addr]))
    assert [str(v) for v in check_safety(report.theory)] == [safety]
    _print_report(build_report("frame.s", "main", "small-structs", report))
    out = capsys.readouterr().out
    assert (f"\ntrace oracle: VIOLATIONS\n  {oracle}\n"
            f"safety re-check (small-structs): VIOLATIONS\n  {safety}\n") in out


# the first `li` has two readings and its register is overwritten before the
# call, so the call's entry is the same under both, and f fails inside
_MEMO_FAILURE = """#@ entry main
main:
  move gp sp
  addiu sp sp -8
  sw ra 4(sp)
  li t0 msg
  li t0 1
  jal f
  lw ra 4(sp)
  move sp gp
  jr ra
f:
  lw v0 0(t5)
  jr ra
msg:
  .bytes "hi"
"""


def test_a_callee_failure_is_memoized_under_its_entry(monkeypatch):
    program = parse_program(_MEMO_FAILURE)
    walked, calls = [], []
    run, certify_routine = certifier._Walk.run, certifier._Engine.certify_routine

    def counted_run(walk, addr, ann):
        walked.append(program.label_at(addr))
        return run(walk, addr, ann)

    def counted_certify(engine, addr, entry, call_stack):
        calls.append(program.label_at(addr))
        return certify_routine(engine, addr, entry, call_stack)

    monkeypatch.setattr(certifier._Walk, "run", counted_run)
    monkeypatch.setattr(certifier._Engine, "certify_routine", counted_certify)
    report = certify_program(program)
    assert report.verdict == "UNSAFE" and report.stats.backtracks == 1
    (failure,) = report.failures
    assert (failure.kind, failure.addr) == ("CalleeUnsafe", program.labels["main"] + 20)
    assert failure.detail.startswith("f: NoDisassembly at 0x00400024 [lw v0 0(t5)]: ")
    # both readings of the `li` call f; the second call re-raises the first's failure
    assert calls == ["main", "f", "f"]
    assert walked == ["main", "f"]


def _unreachable_entry(monkeypatch):
    return certify_program(dataclasses.replace(parse_program("main:\n  jr ra\n"), entry="nosuch"))


def _budget_exhausted(monkeypatch):
    monkeypatch.setattr(certifier, "SEARCH_BUDGET", 2)
    return certify_program(parse_program(kli_source(4, False)))


@pytest.mark.parametrize("make, kind, detail", [
    (_unreachable_entry, "UnreachableEntry", "entry label 'nosuch' is not defined"),
    (_budget_exhausted, "SearchBudgetExhausted", "tried more than 2 readings"),
], ids=["unreachable-entry", "search-budget"])
def test_report_of_a_verdict_without_a_theory(make, kind, detail, monkeypatch, capsys):
    report = make(monkeypatch)
    assert report.verdict == "UNSUPPORTED" and report.theory is None
    rep = build_report("p.s", "main", "small-structs", report)
    assert rep == {
        "schema": "aliascert-report/1", "file": "p.s", "entry": "main",
        "byte_policy": "small-structs", "verdict": "UNSUPPORTED",
        "failures": [{"address": None, "rule": None, "kind": kind, "detail": detail}],
        "routines": [], "calls": [], "oracle": None, "safety": None,
    }
    _print_report(rep)
    assert capsys.readouterr().out == \
        f"failure: {kind} at <program>: {detail}\n\nverdict: UNSUPPORTED\n"


def test_a_routine_that_never_returns_has_no_exit(capsys):
    program = parse_program("#@ entry main\nmain:\n  li v1 0xB0000010\n  sb zero 0(v1)\n"
                            "stop: j stop\n")
    report = certify_program(program)
    assert report.safe
    (cert,) = report.theory.routines.values()
    assert cert.exit_ann is None
    rep = build_report("halt.s", "main", "small-structs", report)
    (routine,) = rep["routines"]
    assert routine["exit"] is None and rep["oracle"]["ok"] and rep["safety"]["ok"]
    _print_report(rep)
    out = capsys.readouterr().out
    assert "  exit:" not in out and out.endswith("\nverdict: SAFE\n")


def test_a_copy_with_an_offset_set_variable_cannot_restore_the_stack_pointer():
    report = certify_program(parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], gp=c^[0]!?s, ra=u^0\n"
        "main:\n  move sp gp\n  jr ra\n"))
    assert report.verdict == "UNSAFE"
    (failure,) = report.failures
    assert (failure.kind, failure.addr) == ("NoDisassembly", 0x00400000)
    assert failure.detail == ("cspf gp: offset set of c^[0]!?s is not concrete; "
                              "rspf gp: [0] is not the enclosing tower of [0]")


_PUSH_AND_RETURN = "  addiu sp sp -8\n  jr ra\n"


def test_the_entry_routine_is_exempt_from_handing_the_stack_pointer_back():
    # the convention is checked at the call site: the entry returns to the
    # sentinel, and nothing reloads through its stack pointer after that
    entry = certify_program(parse_program("#@ entry main\nmain:\n" + _PUSH_AND_RETURN))
    assert entry.safe
    assert str(entry.theory.routines[entry.theory.entry_key].exit_ann.star_type()) == "c^[8,0]"
    assert check_program(entry.theory) == [] and check_safety(entry.theory) == []
    called = certify_program(parse_program(
        "#@ entry main\nmain:\n  move gp sp\n  addiu sp sp -8\n  sw ra 4(sp)\n  jal f\n"
        "  lw ra 4(sp)\n  move sp gp\n  jr ra\nf:\n" + _PUSH_AND_RETURN))
    assert called.verdict == "UNSAFE"
    (failure,) = called.failures
    assert (failure.kind, failure.rule, failure.detail) == \
        ("StackNotRestored", "gosub f", "f hands back c^[8,0] in sp")


# -- the certificate -------------------------------------------------------------

# `li t0 s` is first read as a string, and `jal f` certifies f under that
# entry; `lw t1 0(t0)` then has no reading, so the search backjumps to the
# `li`, takes the array reading, and certifies f again
_ORPHAN = """#@ entry main
main:
  move gp sp
  addiu sp sp -8
  sw ra 4(sp)
  li t0 s
  jal f
  lw t1 0(t0)
  lw ra 4(sp)
  move sp gp
  jr ra
f:
  jr ra
s: .bytes 1 2 3 4
"""

# f is certified for t0=u^1 and for t0=c^rep(1)!{0}, and each certificate
# calls g at one site under a different entry
_CALLS = """#@ entry main
main:
  move gp sp
  addiu sp sp -8
  sw ra 4(sp)
  li t0 1
  jal f
  li t0 s
  jal f
  lw ra 4(sp)
  move sp gp
  jr ra
f:
  move s0 sp
  addiu sp sp -8
  sw ra 4(sp)
  jal g
  lw ra 4(sp)
  move sp s0
  jr ra
g:
  jr ra
s: .bytes 1 2 3 4
"""


def _reached(theory) -> set[str]:
    """The keys of the routines reachable from the theory's entry through
    ``Row.callee``."""
    reached, todo = {theory.entry_key}, [theory.entry_key]
    while todo:
        for row in theory.routines[todo.pop()].rows.values():
            if row.callee is not None and row.callee not in reached:
                reached.add(row.callee)
                todo.append(row.callee)
    return reached


def test_a_certificate_holds_only_the_routines_its_proof_calls():
    report = certify_program(parse_program(_ORPHAN))
    assert report.safe
    theory = report.theory
    # in the order they were certified: a callee ends before its caller
    f, main = theory.routines.values()
    assert (f.label, main.label, main.key) == ("f", "main", theory.entry_key)
    assert str(f.entry.reg(REG_INDEX["t0"])) == "u^4!{0,1,2,3}"
    assert check_program(theory) == [] and check_safety(theory) == []


def test_a_verdict_other_than_safe_carries_no_theory():
    report = certify_program(parse_program(_ORPHAN.replace("lw t1 0(t0)", "lw t1 4(t0)")))
    assert report.verdict == "UNSAFE" and report.theory is None


def test_every_safe_certificate_holds_just_what_its_entry_reaches():
    sources = [("orphan", _ORPHAN, "small-structs"), ("calls", _CALLS, "small-structs")]
    sources += [(key, source, policy) for key, _, source, policy in report_digest_cases()]
    for key, source, policy in sources:
        report = certify_program(parse_program(source), policy)
        if report.safe:
            assert set(report.theory.routines) == _reached(report.theory), key


def test_the_report_lists_each_call_of_each_callee_routine():
    report = certify_program(parse_program(_CALLS))
    assert report.safe
    calls = {(addr, row.callee) for cert in report.theory.routines.values()
             for addr, row in cert.rows.items() if row.callee is not None}
    assert len(calls) == 4
    rep = build_report("calls.s", "main", "small-structs", report)
    routines = {r["key"]: r for r in rep["routines"]}
    expected = sorted((site, routines[key]["label"], key) for site, key in calls)
    assert [(c["site"], c["callee"], c["entry"], c["exit"]) for c in rep["calls"]] == \
        [(site, label, routines[key]["entry"], routines[key]["exit"])
         for site, label, key in expected]
