"""Per-instruction annotation transformers for the stack machine.

Each stack instruction relates the annotation before it to the annotation
after it.  ``apply_smallstep`` either produces the post-annotation or
raises :class:`PatternMismatch`, which signals that this disassembly
choice is impossible at this point.  Bindings the rule does not name are
left untouched.  Every stack and heap access goes through
``annot.check_access``; a failed guard or frame operation raises
``AnnotError``, which ``apply_smallstep`` turns into ``PatternMismatch``
in one place.
"""

from __future__ import annotations

from .annot import (
    C0,
    AnnotError,
    AnnotatedType,
    Annotation,
    Calc,
    Finite,
    Rep,
    SetVar,
    Uncalc,
    check_access,
    check_frame,
    pop_frame,
    push_frame,
)
from .disasm import StackInstr
from .isa import ZERO, reg_name


class PatternMismatch(Exception):
    def __init__(self, rule: str, reason: str):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


def _fail(s: StackInstr, reason: str):
    raise PatternMismatch(str(s), reason)


def _need_star(s: StackInstr, a: Annotation) -> Calc:
    if a.star is None:
        _fail(s, "no register holds the stack pointer")
    return a.star_type()


def _need_reg(s: StackInstr, a: Annotation, r: int) -> AnnotatedType:
    t = a.reg(r)
    if t is None:
        _fail(s, f"register {reg_name(r)} is unbound")
    return t


def _need_unstarred(s: StackInstr, a: Annotation, *rs: int):
    for r in rs:
        if r is not None and r == a.star:
            _fail(s, f"register {reg_name(r)} holds the stack pointer")


def _need_writable(s: StackInstr, r: int):
    if r == ZERO:
        _fail(s, "the zero register cannot be a destination")


def _need_heap_base(s: StackInstr, base: AnnotatedType):
    """Fail unless ``base`` is the pointer ``s`` reaches the heap through:
    a string pointer for the string ops, an array pointer for the others."""
    if s.op in ("putx", "putbx", "getx", "getbx"):
        if not (isinstance(base, Calc) and isinstance(base.tower, Rep)):
            _fail(s, f"base {reg_name(s.rs)} is not a string pointer: {base}")
    elif not isinstance(base, Uncalc):
        _fail(s, f"base {reg_name(s.rs)} is not an array pointer: {base}")


def apply_smallstep(s: StackInstr, a: Annotation) -> Annotation:
    """Post-annotation of ``s`` on pre-annotation ``a``.

    Control transfers (goto, ifnz, ifeq, return) leave the annotation
    unchanged here; the certification engine handles their flow.  gosub is
    not applied here at all -- calls go through the calling convention.
    """
    try:
        return _rule(s, a)
    except AnnotError as e:  # a failed access guard or frame operation
        _fail(s, str(e))


def _rule(s: StackInstr, a: Annotation) -> Annotation:
    op = s.op

    if op == "nop" or op == "goto" or op == "return":
        return a

    if op in ("ifnz", "ifeq"):
        for r in (s.rd, s.rs) if op == "ifeq" else (s.rd,):
            t = _need_reg(s, a, r)
            if not isinstance(t, Calc):
                _fail(s, f"tested register {reg_name(r)} is not calculated: {t}")
        return a

    if op == "cspt":
        st = _need_star(s, a)
        _need_writable(s, s.rd)
        if s.rd == a.star:
            _fail(s, "destination already holds the stack pointer")
        return a.set_reg(s.rd, st)

    if op in ("cspf", "rspf"):
        st = _need_star(s, a)
        if s.rs == a.star:
            _fail(s, "source is the stack pointer itself")
        t = _need_reg(s, a, s.rs)
        if not (isinstance(t, Calc) and isinstance(t.tower, Finite)):
            _fail(s, f"saved copy {reg_name(s.rs)} is not a finite stack type: {t}")
        if op == "cspf":
            if isinstance(t.offs, SetVar):
                _fail(s, f"offset set of {t} is not concrete")
            if t.tower != st.tower:
                _fail(s, f"copy tower {t.tower} differs from current {st.tower}")
            return a.set_reg(a.star, t).prune_slots(t.offs)
        # rspf: the current frame must sit exactly one level above the copy,
        # which goes in as it is, so its written set may be a variable
        if st.tower.frames[1:] != t.tower.frames:
            _fail(s, f"{t.tower} is not the enclosing tower of {st.tower}")
        return a.set_reg(a.star, t).with_slots()

    if op == "push":
        st = _need_star(s, a)
        new = push_frame(st, s.n)
        check_frame(s.n)
        return a.set_reg(a.star, new).with_slots()

    if op == "stepx":
        _need_unstarred(s, a, s.rd)
        t = _need_reg(s, a, s.rd)
        if not (isinstance(t, Calc) and isinstance(t.tower, Rep)):
            _fail(s, f"{reg_name(s.rd)} is not a string pointer: {t}")
        new = pop_frame(t, s.n)
        return a.set_reg(s.rd, new)

    if op == "addaiu":
        _need_unstarred(s, a, s.rd, s.rs)
        _need_writable(s, s.rd)
        t = _need_reg(s, a, s.rs)
        if not (isinstance(t, Calc) and isinstance(t.tower, Finite)):
            _fail(s, f"arithmetic source {reg_name(s.rs)} is not calculated: {t}")
        return a.set_reg(s.rd, C0)

    if op in ("nandop", "addop"):
        _need_unstarred(s, a, s.rd, s.rs, s.rt)
        _need_writable(s, s.rd)
        _need_reg(s, a, s.rs)
        _need_reg(s, a, s.rt)
        return a.set_reg(s.rd, C0)

    if op == "mov":
        _need_unstarred(s, a, s.rd, s.rs)
        _need_writable(s, s.rd)
        t = _need_reg(s, a, s.rs)
        return a.set_reg(s.rd, t)

    if op in ("put", "putb"):
        st = _need_star(s, a)
        _need_unstarred(s, a, s.rd)
        val = _need_reg(s, a, s.rd)
        new = check_access(st, s.n, s.width(), write=True)
        stored = val if op == "put" else C0  # a byte store leaves plain data
        return a.set_reg(a.star, new).set_slot(s.n, stored)

    if op in ("get", "getb"):
        st = _need_star(s, a)
        _need_unstarred(s, a, s.rd)
        _need_writable(s, s.rd)
        check_access(st, s.n, s.width())
        stored = a.slot(s.n)
        if stored is None:
            _fail(s, f"stack slot ({s.n}) holds no binding")
        return a.set_reg(s.rd, stored if op == "get" else C0)

    if op in ("putx", "putbx", "swth", "sbth"):
        _need_unstarred(s, a, s.rd, s.rs)
        base = _need_reg(s, a, s.rs)
        val = _need_reg(s, a, s.rd)
        _need_heap_base(s, base)
        if not isinstance(val, Calc):
            _fail(s, f"stored value {reg_name(s.rd)} must be calculated, got {val}")
        new = check_access(base, s.n, s.width(), write=True)
        return a.set_reg(s.rs, new)

    if op in ("getx", "getbx", "lwfh", "lbfh"):
        _need_unstarred(s, a, s.rd, s.rs)
        _need_writable(s, s.rd)
        base = _need_reg(s, a, s.rs)
        _need_heap_base(s, base)
        check_access(base, s.n, s.width())
        return a.set_reg(s.rd, C0)  # heap loads yield plain data

    if op in ("newx", "newh"):
        _need_unstarred(s, a, s.rd)
        _need_writable(s, s.rd)
        if op == "newx":
            t: AnnotatedType = Calc(Rep(s.n), s.offs)
        else:
            t = Uncalc(s.n, s.offs)
        return a.set_reg(s.rd, t)

    if op == "gosub":
        _fail(s, "subroutine calls are applied by the calling convention")

    raise ValueError(f"unknown stack op {op!r}")
