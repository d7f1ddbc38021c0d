"""Independent dataflow-trace checker for certified theories.

Values flow through registers and stack slots; instructions attach
*events* to specific locations (a write mark, a read mark, a frame shift,
an introduction).  Folding the events along each flow with the equations
below rebinds an annotated type at every point, and a theory is accepted
only if every guard holds, every revisited point sees identical types
across paths, and every routine hands its stack back intact.  The walk
carries an ``Annotation`` value per point, using only its data
operations.  It folds every event at every row; once its fold at a row
equals the recorded annotation, it goes on from the recorded one, so
the rows after it compare, and rebind, by identity.  This checker
shares no rule machinery with the certifier: it re-derives everything
from the event algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annot import (
    U0,
    WORD,
    AnnotatedType,
    C0,
    Calc,
    Finite,
    Rep,
    SetVar,
    TypeVar,
    Uncalc,
    Annotation,
    offs_text,
)
from .certifier import RoutineCert, Theory
from .disasm import StackInstr
from .isa import RA, reg_name

# --------------------------------------------------------------------------
# events


@dataclass(frozen=True)
class Write:
    k: int
    w: int = 4


@dataclass(frozen=True)
class Read:
    k: int
    w: int = 4


@dataclass(frozen=True)
class IntroArray:
    n: int
    offs: frozenset[int] = frozenset()


@dataclass(frozen=True)
class IntroString:
    n: int
    offs: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Arith:
    pass


@dataclass(frozen=True)
class FrameUp:
    n: int


@dataclass(frozen=True)
class FrameDown:
    n: int | None = None  # None: whatever frame is current


@dataclass(frozen=True)
class Copy:
    pass


@dataclass(frozen=True)
class TraceViolation:
    equation: str
    detail: str
    addr: int | None = None

    def __str__(self) -> str:
        where = f" at 0x{self.addr:08x}" if self.addr is not None else ""
        return f"{self.equation}{where}: {self.detail}"


def _off_word(equation: str, e: Write | Read, step: int = 0) -> TraceViolation | None:
    """The violation of ``equation`` when ``e`` accesses a word at an
    offset, or through a string step ``step``, that is not whole words:
    the machine faults on a word access off a word boundary."""
    if e.w == WORD and e.k % WORD:
        return TraceViolation(equation, f"word access at {e.k}, not a multiple of {WORD}")
    if e.w == WORD and step % WORD:
        return TraceViolation(equation, f"word access through string step {step}, "
                                        f"not a multiple of {WORD}")
    return None


def fold_event(t: AnnotatedType, e: object) -> AnnotatedType | TraceViolation:
    """One step of the running-type calculation along a trace: ``e`` is a
    :class:`Write`, :class:`Read`, :class:`FrameUp` or :class:`FrameDown`
    (the walker applies copies, introductions and plain words itself).

    Returns the rebound type when the matching equation's guard holds, or
    a violation naming the equation/constraint that failed.  Only a read
    or a write looks at the written set X: frame shifts fold through a
    variable X, and a read or write through one is a ``(d)`` violation,
    as is any event on a type variable.
    """
    if isinstance(t, TypeVar):
        return TraceViolation("(d)", f"event {e} on unresolved hypothesis {t}")
    X = t.offs
    access = isinstance(e, (Write, Read))
    if access and isinstance(X, SetVar):
        return TraceViolation("(d)", f"event {e} through unresolved offset set of {t}")

    # frame shifts fold per kind of pointer; a read or a write takes the
    # bound, the string step and the write and read equations of its kind
    # to the one guard below
    if isinstance(t, Uncalc):
        if not access:
            return TraceViolation("(c)", f"array pointers admit no frame shifts: {e} on {t}")
        bound, step, (eq_write, eq_read) = t.size, 0, ("eq1", "eq2")
    elif isinstance(t.tower, Rep):
        n = t.tower.step
        if isinstance(e, FrameDown):
            if e.n is None or e.n == n:
                # the same written pattern recurs at every increment
                return t
            return TraceViolation("eq3", f"step {e.n} != string increment {n}")
        if not access:
            return TraceViolation("(d)", f"string pointers only step down: {e} on {t}")
        bound, step, (eq_write, eq_read) = n, n, ("eq4", "eq5")
    else:
        frames = t.tower.frames
        if isinstance(e, FrameUp):
            if e.n > 0 and e.n % WORD == 0:
                return Calc(Finite((e.n,) + frames), frozenset())
            return TraceViolation("eq6", f"frame size {e.n} must be a positive multiple of {WORD}")
        if isinstance(e, FrameDown):
            n = frames[0] if e.n is None else e.n
            if frames[0] == n and len(frames) > 1:
                return Calc(Finite(frames[1:]), frozenset())
            return TraceViolation("eq7", f"cannot pop {n} from tower {t.tower}")
        if not access:
            return TraceViolation("(d)", f"unhandled event {e} on {t}")
        bound, step, (eq_write, eq_read) = frames[0], 0, ("eq8", "eq9")

    if isinstance(e, Write):
        if bound - e.w >= e.k >= 0:
            violation = _off_word(eq_write, e, step)
            if violation or e.k in X:  # X | {k} is X
                return violation or t
            written = X | {e.k}
            return Uncalc(t.size, written) if isinstance(t, Uncalc) else Calc(t.tower, written)
        return TraceViolation(eq_write, f"write {e.k} outside [0, {bound}-{e.w}]")
    if e.k in X and e.k >= 0:
        return _off_word(eq_read, e, step) or t
    return TraceViolation(eq_read, f"read {e.k} not in written set {offs_text(X)}")


# --------------------------------------------------------------------------
# per-instruction located events


@dataclass(frozen=True)
class Located:
    """An event attached to a location, or a plain copy between two."""

    event: object
    at: tuple  # ("sp",) | ("reg", r) | ("slot", k)
    src: tuple | None = None  # for Copy: value flows src -> at


SPL = ("sp",)


def _r(r: int) -> tuple:
    return ("reg", r)


def _s(k: int) -> tuple:
    return ("slot", k)


def events_of(s: StackInstr) -> list[Located]:
    """Events a stack instruction attaches, on the locations it names.

    Control transfers, calls, and returns carry no located events; the
    walker enforces their conditions directly.
    """
    op = s.op
    if op == "put":
        return [Located(Write(s.n, 4), SPL), Located(Copy(), _s(s.n), src=_r(s.rd))]
    if op == "putb":
        return [Located(Write(s.n, 1), SPL), Located(Arith(), _s(s.n))]
    if op == "get":
        return [Located(Read(s.n, 4), SPL), Located(Copy(), _r(s.rd), src=_s(s.n))]
    if op == "getb":
        return [Located(Read(s.n, 1), SPL), Located(Arith(), _r(s.rd))]
    if op in ("putx", "swth", "putbx", "sbth"):
        return [Located(Write(s.n, s.width()), _r(s.rs))]
    if op in ("getx", "lwfh", "getbx", "lbfh"):
        return [Located(Read(s.n, s.width()), _r(s.rs)), Located(Arith(), _r(s.rd))]
    if op == "push":
        return [Located(FrameUp(s.n), SPL)]
    if op == "stepx":
        return [Located(FrameDown(s.n), _r(s.rd))]
    if op == "rspf":
        return [Located(FrameDown(None), SPL), Located(Copy(), SPL, src=_r(s.rs))]
    if op == "cspf":
        return [Located(Copy(), SPL, src=_r(s.rs))]
    if op == "cspt":
        return [Located(Copy(), _r(s.rd), src=SPL)]
    if op == "mov":
        return [Located(Copy(), _r(s.rd), src=_r(s.rs))]
    if op == "newx":
        return [Located(IntroString(s.n, s.offs), _r(s.rd))]
    if op == "newh":
        return [Located(IntroArray(s.n, s.offs), _r(s.rd))]
    if op in ("addaiu", "nandop", "addop"):
        return [Located(Arith(), _r(s.rd))]
    return []


# --------------------------------------------------------------------------
# whole-theory checking


class _Walker:
    """The walk of one :func:`check_program` call.  ``events`` holds the
    ``events_of`` list of each stack instruction object by ``id(s)``, with
    the instruction, so no id is reused while the walker lives: rows that
    share a :class:`StackInstr` build its events once.  The events are
    still folded at every row."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self.program = theory.program
        self.violations: list[TraceViolation] = []
        self.events: dict[int, tuple[StackInstr, list[Located]]] = {}

    def bad(self, addr: int | None, equation: str, detail: str):
        self.violations.append(TraceViolation(equation, detail, addr))

    def check_routine(self, cert: RoutineCert):
        seen: dict[int, Annotation] = {}
        exits: list[Annotation] = []
        # paths still to walk, latest first: a branch's target is walked
        # to its end before its fall-through
        work = [(cert.entry_addr, cert.entry)]
        while work:
            addr, state = work.pop()
            self._walk(cert, addr, state, seen, exits, work)
        if cert.exit_ann is not None:
            for state in exits:
                if state != cert.exit_ann:
                    self.bad(cert.entry_addr, "(*)",
                             f"{cert.label}: exit state differs from recorded exit")

    def _walk(self, cert: RoutineCert, addr: int, state: Annotation,
              seen: dict[int, Annotation], exits: list[Annotation], work: list):
        while True:
            if addr in seen:
                if seen[addr] != state:
                    self.bad(addr, "(*)",
                             f"types differ across traces converging at 0x{addr:08x}")
                return
            seen[addr] = state
            row = cert.rows.get(addr)
            if row is None:
                self.bad(addr, "coverage", "reachable address has no annotation")
                return
            if state is not row.pre:
                if state != row.pre:
                    self.bad(addr, "theory",
                             f"recorded annotation disagrees with event fold: "
                             f"recorded {row.pre}; folded {state}")
                else:
                    # an equal value: going on from the recorded object lets
                    # the rows after it compare, and rebind, by identity
                    state = row.pre
            s = row.chosen
            op = s.op

            if op == "return":
                t = state.reg(s.rd)
                if t != U0:
                    self.bad(addr, "return",
                             f"jump register {reg_name(s.rd)} holds {t}, not u^0")
                exits.append(state)
                return
            if op in ("ifnz", "ifeq"):
                for r in (s.rd, s.rs) if op == "ifeq" else (s.rd,):
                    t = state.reg(r)
                    if not isinstance(t, Calc):
                        self.bad(addr, "branch",
                                 f"tested register {reg_name(r)} is {t}, not calculated")
                work.append((addr + 4, state))
                addr = self.program.resolve(s.target)
                continue
            if op == "goto":
                addr = self.program.resolve(s.target)
                continue
            if op == "gosub":
                state = self._apply_call(addr, row, state)
            else:
                state = self._apply_events(addr, s, state)
            if state is None:
                return
            addr += 4

    # -- event application ------------------------------------------------

    def _loc_get(self, state: Annotation, loc: tuple, addr: int):
        if loc == SPL:
            if state.star is None:
                self.bad(addr, "(d)", "no stack pointer register")
                return None
            return state.star_type()
        if loc[0] == "reg":
            return state.reg(loc[1])
        return state.slot(loc[1])

    @staticmethod
    def _loc_set(state: Annotation, loc: tuple, t: AnnotatedType) -> Annotation:
        if loc == SPL:
            return state.set_reg(state.star, t)
        if loc[0] == "reg":
            return state.set_reg(loc[1], t)
        return state.set_slot(loc[1], t)

    def _apply_events(self, addr: int, s: StackInstr,
                      state: Annotation) -> Annotation | None:
        """The annotation after ``s``'s events, or None after a violation."""
        hit = self.events.get(id(s))
        if hit is None:
            hit = self.events[id(s)] = (s, events_of(s))
        for ev in hit[1]:
            event, at, src = ev.event, ev.at, ev.src
            kind = type(event)
            if kind is Copy:
                t = self._loc_get(state, src, addr)
                if t is None:
                    self.bad(addr, "flow", f"copy from unbound {src}")
                    return None
                if at == SPL:
                    # stack-pointer discipline: an installed copy must agree
                    # with the shift algebra applied to the old value
                    folded = state.star_type()
                    if not (isinstance(t, Calc) and isinstance(t.tower, Finite)
                            and isinstance(folded, Calc) and t.tower == folded.tower):
                        self.bad(addr, "(c)",
                                 f"copy {t} into the stack pointer does not match "
                                 f"its tower {getattr(folded, 'tower', None)}")
                        return None
            elif kind is IntroString:
                t = Calc(Rep(event.n), event.offs)
            elif kind is IntroArray:
                t = Uncalc(event.n, event.offs)
            elif kind is Arith:
                t = C0
            else:
                t = self._loc_get(state, at, addr)
                if t is None:
                    self.bad(addr, "flow", f"event {event} on unbound {at}")
                    return None
                t = fold_event(t, event)
                if type(t) is TraceViolation:
                    self.bad(addr, t.equation, t.detail)
                    return None
            state = self._loc_set(state, at, t)
        # frame bookkeeping for slots
        if s.op in ("push", "rspf"):
            return state.with_slots()
        if s.op == "cspf":
            offs = state.star_type().offs
            return state.prune_slots(frozenset() if isinstance(offs, SetVar) else offs)
        return state

    def _apply_call(self, addr: int, row, state: Annotation) -> Annotation | None:
        """The caller's annotation after the call, or None after a violation."""
        if row.callee is None or row.callee not in self.theory.routines:
            self.bad(addr, "call", "gosub row lacks a certified callee")
            return None
        callee = self.theory.routines[row.callee]
        star = state.star
        if star is None:
            self.bad(addr, "call", "calls need a stack pointer register")
            return None
        # the callee builds its own frame
        if state.set_reg(RA, U0).set_reg(star, C0).with_slots() != callee.entry:
            self.bad(addr, "call",
                     f"call-site state does not match {callee.label} entry summary")
            return None
        out = callee.exit_ann
        if out is None:
            self.bad(addr, "call", f"{callee.label} never returns")
            return None
        if out.star != star or out.reg(star) != C0:
            self.bad(addr, "call",
                     f"{callee.label} does not hand the empty frame back in "
                     f"{reg_name(star)}")
            return None
        return out.set_reg(star, state.star_type()).with_slots(state.slots)


def check_program(theory: Theory) -> list[TraceViolation]:
    """Fold dataflow events over every routine of a theory.  Empty result:
    all equation guards hold, converging traces agree, and every call
    honors the frame convention."""
    walker = _Walker(theory)
    for cert in theory.routines.values():
        walker.check_routine(cert)
    return walker.violations


def check_stack_pointer(theory: Theory) -> list[TraceViolation]:
    """The stack pointer's invariant, a pass apart from the fold: wherever
    a theory's annotation stars a register (a routine's entry and exit,
    and each row before and after its instruction), that register holds
    a calculated type with a finite frame tower.  The walk checks the
    starred register only around a call, so a theory that binds another
    type there passes it."""
    violations = []
    for cert in theory.routines.values():
        kept = None  # the last annotation that kept the invariant: rows share them

        def check(addr: int, where: str, ann: Annotation | None) -> None:
            nonlocal kept
            if ann is kept or ann is None or ann.star is None:
                return
            t = ann.regs[ann.star]
            if isinstance(t, Calc) and isinstance(t.tower, Finite):
                kept = ann
            else:
                violations.append(TraceViolation(
                    "(sp)", f"{cert.label} {where}: stack pointer {reg_name(ann.star)} holds "
                            f"{t}, not a calculated type with a finite tower", addr))

        check(cert.entry_addr, "entry", cert.entry)
        for addr in sorted(cert.rows):
            row = cert.rows[addr]
            check(addr, "before", row.pre)
            check(addr, "after", row.post)
        check(cert.entry_addr, "exit", cert.exit_ann)
    return violations
