from __future__ import annotations

import pytest

from aliascert import certifier, certify_program, check_safety, handle_call, parse_program
from aliascert.annot import C0, U0, calc, rep, uncalc
from aliascert.annotation import Annotation
from aliascert.certifier import CertError
from aliascert.frontend import serialize_type
from aliascert.isa import GP, RA, SP, V0, V1, REG_INDEX
from aliascert.smallstep import PatternMismatch

from conftest import load
from genprogs import kli_branch_source, kli_callee_source, kli_move_source, kli_source

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
    assert serialize_type(row.post.reg(V1)) == "u^1!{0}"
    # the caller's frame and slots come back untouched
    assert row.post.star_type() == row.pre.star_type()
    assert row.post.slots == row.pre.slots


def test_handle_call_halt_exit(hello):
    ann = Annotation.make(star=SP, regs={SP: calc(32, 0, offs=[28]), RA: U0,
                                         0: C0}, slots={28: U0})
    post = handle_call(hello, 0x400024, "halt", ann)
    assert serialize_type(post.reg(V1)) == "u^1!{0}"
    assert post.star_type() == calc(32, 0, offs=[28])


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
    with pytest.raises(PatternMismatch):
        handle_call(p, 0x400004, "f", Annotation.make(regs={RA: U0}))


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
    report = certify_program(parse_program("nop\n"))
    assert report.verdict == "UNSUPPORTED"
    assert report.failures[0].kind == "UnreachableEntry"


def test_default_entry_annotation():
    p = parse_program("#@ entry main\nmain:\n  jr ra\n")
    report = certify_program(p)
    assert report.safe
    entry = report.theory.routines[report.theory.entry_key].entry
    assert entry.star == SP and entry.reg(SP) == C0
    assert entry.reg(RA) == U0 and entry.reg(0) == C0


# -- byte policy ---------------------------------------------------------------

def test_forbid_policy_blocks_byte_access(corpus_programs):
    report = certify_program(load("hello.s"), entry="halt", policy="forbid")
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
