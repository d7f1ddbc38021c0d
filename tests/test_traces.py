from __future__ import annotations

import copy
import dataclasses
import random

import pytest

from aliascert.annot import (
    C0,
    U0,
    AnnotError,
    Annotation,
    Calc,
    Finite,
    Rep,
    SetVar,
    Uncalc,
    calc,
    check_access,
    check_frame,
    pop_frame,
    push_frame,
    rep,
    uncalc,
)
from aliascert.certifier import Row, RoutineCert, Theory, certify_program, check_safety
from aliascert.disasm import StackInstr
from aliascert.frontend import parse_program
from aliascert.isa import RA, REG_INDEX, SP, V0
from aliascert.traces import (
    Arith,
    Copy,
    FrameDown,
    FrameUp,
    Located,
    Read,
    TraceViolation,
    Write,
    check_program,
    check_stack_pointer,
    events_of,
    fold_event,
)

from conftest import load

RA = REG_INDEX["ra"]


# -- fold_event: the nine equations -------------------------------------------

def test_array_write_and_read():
    assert fold_event(uncalc(8, offs=[0]), Write(4, 4)) == uncalc(8, offs=[0, 4])
    assert fold_event(uncalc(8, offs=[0]), Read(0, 4)) == uncalc(8, offs=[0])
    v = fold_event(uncalc(8, offs=[0]), Read(4, 4))
    assert isinstance(v, TraceViolation) and v.equation == "eq2"
    v = fold_event(uncalc(8, offs=[4, 0]), Read(1, 1))
    assert str(v) == "eq2: read 1 not in written set {0,4}"


def test_array_admits_no_shifts():
    v = fold_event(uncalc(8), FrameUp(4))
    assert isinstance(v, TraceViolation) and v.equation == "(c)"


def test_string_step_preserves_pattern():
    assert fold_event(rep(1, offs=[0]), FrameDown(1)) == rep(1, offs=[0])
    v = fold_event(rep(1), FrameDown(2))
    assert isinstance(v, TraceViolation) and v.equation == "eq3"


def test_string_write_read_bounds():
    assert fold_event(rep(4), Write(0, 4)) == rep(4, offs=[0])
    v = fold_event(rep(4), Write(1, 4))
    assert isinstance(v, TraceViolation) and v.equation == "eq4"
    v = fold_event(rep(4), Read(0, 4))
    assert isinstance(v, TraceViolation) and v.equation == "eq5"
    # a word access keeps to a word boundary, at its offset and along the
    # string's step; a byte access need not
    for t, e, eq in [(rep(8), Write(2, 4), "eq4"), (rep(6), Write(0, 4), "eq4"),
                     (rep(8, offs=[2]), Read(2, 4), "eq5"), (rep(6, offs=[0]), Read(0, 4), "eq5")]:
        v = fold_event(t, e)
        assert isinstance(v, TraceViolation) and v.equation == eq, (t, e)
    assert fold_event(rep(6), Write(1, 1)) == rep(6, offs=[1])
    assert fold_event(rep(6, offs=[1]), Read(1, 1)) == rep(6, offs=[1])


def test_stack_shift_parenthesis():
    t = calc(48, offs=[0, 4, 8])
    up = fold_event(t, FrameUp(32))
    assert up == calc(32, 48)
    down = fold_event(calc(32, 48, offs=[28]), FrameDown(32))
    assert down == calc(48)
    v = fold_event(calc(32, 48), FrameDown(16))
    assert isinstance(v, TraceViolation) and v.equation == "eq7"
    v = fold_event(calc(0), FrameUp(0))
    assert isinstance(v, TraceViolation) and v.equation == "eq6"


def test_stack_write_read():
    assert fold_event(calc(32, 0), Write(28, 4)) == calc(32, 0, offs=[28])
    v = fold_event(calc(32, 0), Write(32, 4))
    assert isinstance(v, TraceViolation) and v.equation == "eq8"
    v = fold_event(calc(32, 0, offs=[28]), Read(24, 4))
    assert isinstance(v, TraceViolation) and v.equation == "eq9"


def test_shifts_fold_through_an_offset_set_variable():
    # only a read or a write looks at the written set X: frame shifts fold
    # through a variable X as push_frame and pop_frame do, and a read or
    # write through one is a (d) violation
    X = SetVar("X")
    stack, string = Calc(Finite((0,)), X), Calc(Rep(4), X)
    assert fold_event(stack, FrameUp(8)) == calc(8, 0) == push_frame(stack, 8)
    assert fold_event(string, FrameDown(4)) == string == pop_frame(string, 4)
    assert fold_event(Calc(Finite((8, 0)), X), FrameDown(8)) == calc(0)
    for t in (Calc(Finite((8, 0)), X), string, Uncalc(8, X)):
        for e in (Read(0, 4), Write(0, 4), Read(0, 1), Write(0, 1)):
            v = fold_event(t, e)
            assert isinstance(v, TraceViolation) and v.equation == "(d)", (t, e)
            assert "?X" in v.detail, v


def test_a_write_to_a_written_offset_folds_to_an_equal_type():
    # X | {k} is X when k is in X; a new offset is added
    for t in (calc(32, 0, offs=[0, 28]), uncalc(8, offs=[0, 4]), rep(4, offs=[0])):
        assert fold_event(t, Write(0, 4)) == t
        assert fold_event(t, Write(0, 1)) == t
    assert fold_event(calc(32, 0, offs=[28]), Write(24, 4)) == calc(32, 0, offs=[24, 28])
    assert fold_event(uncalc(8, offs=[4]), Write(1, 1)) == uncalc(8, offs=[1, 4])
    # the bound and word-alignment guards still come first
    assert str(fold_event(uncalc(8, offs=[6]), Write(6, 4))) == "eq1: write 6 outside [0, 8-4]"
    assert str(fold_event(calc(32, 0, offs=[2]), Write(2, 4))) == \
        "eq8: word access at 2, not a multiple of 4"


@pytest.mark.parametrize("make,bound", [
    (lambda n: uncalc(n), "size"),       # array bound
    (lambda n: rep(max(n, 1)), "step"),  # string increment
    (lambda n: calc(n, 0), "frame"),     # current frame
])
@pytest.mark.parametrize("w", [1, 4])
def test_write_guard_boundary_by_enumeration(make, bound, w):
    # brute force every k in [0, n]: exactly those with n-w >= k admit a
    # write, a word write only at a multiple of 4 and, along a string,
    # only when the string's step is one too
    for n in (w, w + 1, 8, 12):
        t = make(n)
        step = max(n, 1) if bound == "step" else 0
        for k in range(0, n + 1):
            out = fold_event(t, Write(k, w))
            if n - w >= k >= 0 and (w == 1 or k % 4 == 0 and step % 4 == 0):
                assert not isinstance(out, TraceViolation), (n, k, w)
                assert k in out.offs
            else:
                assert isinstance(out, TraceViolation), (n, k, w)


def test_parenthesis_law_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        frames = tuple(rng.randrange(0, 48, 4) for _ in range(rng.randrange(1, 4)))
        offs = [k for k in range(0, max(frames[0] - 3, 0), 4) if rng.random() < 0.4]
        t = calc(*frames, offs=offs)
        n = rng.randrange(4, 64, 4)
        up = fold_event(t, FrameUp(n))
        down = fold_event(up, FrameDown(n))
        assert down == calc(*frames)


# -- cross-module equivalence ---------------------------------------------------

def _random_ground(rng):
    kind = rng.choice(["stack", "string", "array"])
    if kind == "stack":
        frames = tuple(rng.randrange(0, 32, 4) for _ in range(rng.randrange(1, 3)))
        return calc(*frames)
    if kind == "string":
        return rep(rng.choice([1, 2, 4]))
    return uncalc(rng.randrange(0, 16))


def _random_event(rng):
    return rng.choice([
        Write(rng.randrange(0, 16), rng.choice([1, 4])),
        Read(rng.randrange(0, 16), rng.choice([1, 4])),
        FrameUp(rng.randrange(0, 17, 2)),
        FrameDown(rng.choice([1, 2, 4, 8, 16, 32])),
    ])


def _apply_via_ops(t, e):
    if isinstance(e, (Write, Read)):
        return check_access(t, e.k, e.w, write=isinstance(e, Write))
    if isinstance(e, FrameUp):
        check_frame(e.n)
        return push_frame(t, e.n)
    return pop_frame(t, e.n)


def test_fold_agrees_with_type_operations_on_event_sequences():
    # sequences of length <= 8 folded both ways end identically, and the
    # two routes reject exactly the same events
    rng = random.Random(2024)
    for _ in range(500):
        t_fold = t_ops = _random_ground(rng)
        for _ in range(rng.randrange(1, 9)):
            e = _random_event(rng)
            out = fold_event(t_fold, e)
            try:
                via_ops = _apply_via_ops(t_ops, e)
                ops_failed = False
            except AnnotError:
                ops_failed = True
            if isinstance(out, TraceViolation):
                assert ops_failed, (t_fold, e, out)
                break
            assert not ops_failed, (t_ops, e)
            t_fold, t_ops = out, via_ops
            assert t_fold == t_ops


# -- events_of -------------------------------------------------------------------

def test_put_event_location():
    evs = events_of(StackInstr("put", rd=RA, n=28))
    assert evs[0] == Located(Write(28, 4), ("sp",))
    assert evs[1] == Located(Copy(), ("slot", 28), src=("reg", RA))


def test_push_event():
    assert events_of(StackInstr("push", n=32)) == [Located(FrameUp(32), ("sp",))]


def test_nand_event():
    evs = events_of(StackInstr("nandop", rd=V0, rs=V0, rt=V0))
    assert evs == [Located(Arith(), ("reg", V0))]


def test_get_reads_sp_trace_not_the_slot_link():
    evs = events_of(StackInstr("get", rd=V0, n=16))
    assert evs[0].at == ("sp",) and isinstance(evs[0].event, Read)
    assert evs[1].src == ("slot", 16)


# -- whole-theory checking --------------------------------------------------------

def _safe_theory(name="hello.s"):
    report = certify_program(load(name))
    assert report.safe
    return report.theory


def test_corpus_theories_accepted(corpus_programs):
    for name in ("hello", "foo_good", "table2_left", "table2_right"):
        report = certify_program(corpus_programs[name])
        assert report.safe
        assert check_program(report.theory) == []


def test_a_pre_replaced_by_an_equal_object_draws_no_violation():
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    for row in cert.rows.values():
        row.pre = copy.deepcopy(row.pre)
    assert check_program(theory) == []


def test_a_later_row_whose_pre_differs_still_draws_the_theory_violation():
    # the walk goes on from each recorded annotation its fold equals; a
    # recorded annotation that differs is reported, and the walk goes on
    # from the fold, so the rows after it agree again
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    addrs = sorted(cert.rows)
    for addr in addrs:
        cert.rows[addr].pre = copy.deepcopy(cert.rows[addr].pre)
    addr = addrs[len(addrs) // 2]
    row = cert.rows[addr]
    row.pre = row.pre.set_reg(V0, U0 if row.pre.reg(V0) == C0 else C0)
    assert [(v.equation, v.addr) for v in check_program(theory)] == [("theory", addr)]


def test_addu_and_nand_fold_to_plain_words():
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, t0=u^8, t1=c^[0]\n"
                      "main:\n  addu v0 t0 t1\n  nand v1 v0 t0\n  jr ra\n")
    report = certify_program(p)
    assert report.safe
    cert = report.theory.routines[report.theory.entry_key]
    base = cert.entry_addr
    assert [cert.rows[a].chosen.op for a in sorted(cert.rows)] == ["addop", "nandop", "return"]
    assert check_program(report.theory) == []
    # the nand's event lands on a0, so the fold no longer gives the
    # recorded v1 at the return, nor the recorded exit
    row = cert.rows[base + 4]
    cert.rows[base + 4] = dataclasses.replace(
        row, chosen=dataclasses.replace(row.chosen, rd=REG_INDEX["a0"]))
    violations = check_program(report.theory)
    assert [(v.equation, v.addr) for v in violations] == [("theory", base + 8), ("(*)", base)]


def test_out_of_bounds_access_flagged():
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    addr = next(a for a, r in cert.rows.items() if str(r.chosen) == "put zero 8")
    row = cert.rows[addr]
    row.chosen = StackInstr("put", rd=0, n=32)  # beyond the 32-byte frame
    violations = check_program(theory)
    assert any(v.equation == "eq8" for v in violations)


def test_misaligned_word_write_flagged():
    # the frame holds offset 1, but the machine faults on a word stored
    # there; the oracle refuses it as the safety re-check does
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    addr = next(a for a, r in cert.rows.items() if str(r.chosen) == "put zero 8")
    cert.rows[addr].chosen = StackInstr("put", rd=RA, n=1)
    assert [str(v) for v in check_program(theory)] == \
        [f"eq8 at 0x{addr:08x}: word access at 1, not a multiple of 4"]
    assert [v.kind for v in check_safety(theory)] == ["Misaligned"]


def test_read_before_write_flagged():
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    addr = next(a for a, r in cert.rows.items() if str(r.chosen) == "get v0 4")
    cert.rows[addr].chosen = StackInstr("get", rd=V0, n=12)  # never written
    violations = check_program(theory)
    assert any(v.equation == "eq9" for v in violations)


def test_frame_growth_across_loop_flagged():
    # hand-build the theory the certifier refuses: a loop whose body pushes
    p = parse_program(
        "#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, v0=c^[0]\n"
        "main:\nloop:\n  addiu sp sp -8\n  bnez v0 loop\n  jr ra\n")
    base = p.labels["main"]
    a0 = Annotation.make(star=SP, regs={SP: C0, RA: U0, V0: C0, 0: C0})
    a1 = Annotation.make(star=SP, regs={SP: calc(8, 0), RA: U0, V0: C0, 0: C0})
    rows = {
        base: type("R", (), {"pre": a0, "chosen": StackInstr("push", n=8),
                             "post": a1, "callee": None})(),
        base + 4: type("R", (), {"pre": a1, "chosen":
                                 StackInstr("ifnz", rd=V0, target="loop"),
                                 "post": a1, "callee": None})(),
        base + 8: type("R", (), {"pre": a1, "chosen": StackInstr("return", rd=RA),
                                 "post": a1, "callee": None})(),
    }
    cert = RoutineCert("main@x", "main", base, a0, rows, a1)
    theory = Theory(p, "main@x", {"main@x": cert})
    violations = check_program(theory)
    assert any(v.equation == "(*)" for v in violations)


def test_return_through_a_plain_word_flagged():
    # hand-build the theory the certifier refuses: ra holds no return address
    p = parse_program("#@ entry main\nmain:\n  jr ra\n")
    base = p.labels["main"]
    a = Annotation.make(star=SP, regs={SP: C0, RA: C0, 0: C0})
    cert = RoutineCert("main@x", "main", base, a, {base: Row(a, StackInstr("return", rd=RA), a)}, a)
    violations = check_program(Theory(p, "main@x", {"main@x": cert}))
    assert [str(v) for v in violations] == \
        ["return at 0x00400000: jump register ra holds c^[0], not u^0"]


def test_a_string_pointer_installed_as_the_stack_pointer_is_flagged_apart():
    # hand-build the theory the search refuses: ``li sp msg`` read as a string
    # introduction into the starred register, then a return.  Every fold
    # holds, so the walk accepts it; the stack pointer's own pass does not
    source = ("#@ entry main\n#@ assume main: sp*=c^[0]!?X, t1=?y, ra=u^0\nmain:\n"
              "  li sp msg\n  jr ra\nf:\n  jr ra\nmsg:\n  .bytes \"abcdefgh\"\n")
    p = parse_program(source)
    assert not certify_program(p).safe
    base = p.labels["main"]
    entry = p.assumes["main"]
    # the raw constructor: ``Annotation.make`` refuses such an annotation
    after = Annotation(SP, entry.set_reg(SP, rep(1, offs=(0,))).regs, ())
    rows = {base: Row(entry, StackInstr("newx", rd=SP, n=1, offs=frozenset({0})), after),
            base + 4: Row(after, StackInstr("return", rd=RA), after)}
    theory = Theory(p, "main@x", {"main@x": RoutineCert("main@x", "main", base, entry, rows,
                                                          after)})
    assert check_program(theory) == []
    assert [str(v) for v in check_stack_pointer(theory)] == [
        f"(sp) at 0x{a:08x}: main {where}: stack pointer sp holds c^rep(1)!{{0}}, "
        f"not a calculated type with a finite tower"
        for a, where in ((base, "after"), (base + 4, "before"), (base + 4, "after"),
                         (base, "exit"))]
    # an unbound starred register is flagged too
    unbound = Annotation(SP, entry.set_reg(SP, None).regs, ())
    cert = RoutineCert("main@x", "main", base, unbound, {}, None)
    assert [v.detail for v in check_stack_pointer(Theory(p, "main@x", {"main@x": cert}))] == [
        "main entry: stack pointer sp holds None, not a calculated type with a finite tower"]


def test_every_corpus_theory_keeps_the_stack_pointer_invariant(corpus_programs):
    for name, p in corpus_programs.items():
        report = certify_program(p)
        if report.safe:
            assert check_stack_pointer(report.theory) == [], name


def test_byte_store_and_reload_in_a_frame():
    # putb and getb fold a byte mark on the stack pointer and plain data
    # into the slot and the destination; only the permissive policy lets
    # the stack take byte access
    p = parse_program("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0, t0=c^[0]\nmain:\n"
                      "  move gp sp\n  addiu sp sp -4\n  sb t0 0(sp)\n  lb v0 0(sp)\n"
                      "  move sp gp\n  jr ra\n")
    assert not certify_program(p).safe
    report = certify_program(p, policy="permissive")
    assert report.safe
    cert = report.theory.routines[report.theory.entry_key]
    assert [str(cert.rows[a].chosen) for a in sorted(cert.rows)] == \
        ["cspt gp", "push 4", "putb t0 0", "getb v0 0", "rspf gp", "return"]
    assert check_program(report.theory) == []
    assert check_safety(report.theory, "permissive") == []


def test_tower_mismatch_on_restore_flagged():
    theory = _safe_theory("foo_good.s")
    cert = theory.routines[theory.entry_key]
    addr = next(a for a, r in cert.rows.items() if r.chosen.op == "rspf")
    cert.rows[addr].chosen = StackInstr("cspf", rs=REG_INDEX["gp"])
    violations = check_program(theory)
    assert any(v.equation == "(c)" for v in violations)


# -- calls ----------------------------------------------------------------------

_CALL = ("#@ entry main\n#@ assume main: sp*=c^[0], ra=u^0\n"
         "main:\n  move gp ra\n  jal f\n  move ra gp\n  jr ra\nf:\n  jr ra\n")


@pytest.mark.parametrize("mutate,detail", [
    (lambda main, f: setattr(main.rows[0x00400004], "callee", None),
     "gosub row lacks a certified callee"),
    (lambda main, f: setattr(main, "entry", Annotation.make(regs={RA: U0})),
     "calls need a stack pointer register"),
    (lambda main, f: setattr(f, "entry", f.entry.set_reg(V0, C0)),
     "call-site state does not match f entry summary"),
    (lambda main, f: setattr(f, "exit_ann", None), "f never returns"),
    (lambda main, f: setattr(f, "exit_ann", f.exit_ann.set_reg(SP, calc(8, 0))),
     "f does not hand the empty frame back in sp"),
])
def test_call_violations_flagged(mutate, detail):
    theory = certify_program(parse_program(_CALL)).theory
    main = theory.routines[theory.entry_key]
    (f,) = (c for c in theory.routines.values() if c.label == "f")
    mutate(main, f)
    calls = [(v.addr, v.detail) for v in check_program(theory) if v.equation == "call"]
    assert calls == [(0x00400004, detail)]
