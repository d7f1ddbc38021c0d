"""Annotation inference over whole programs.

A depth-first search over disassembly choices drives the per-instruction
rules along the control-flow graph.  The first arrival at an address
records its annotation; every later arrival must unify with it exactly
(no widening), which realizes the loop/branch convergence requirement.
Subroutine calls certify the callee per call site in a fresh theory,
under the convention that a routine builds and destroys its own frame and
hands the stack pointer back in the register it arrived in, with an empty
frame.

The search over one routine is a loop, not a recursion, so its cost is
linear in the instructions it visits and its depth is not bounded by
Python's stack (only call nesting recurses, once per routine on the call
chain).  A visit with readings still untried opens a *choice* on a
stack, holding the state to restore: the search state and a mark into
an undo *journal*.  The routine's rows live in one mutable map; while a
choice is open, the journal lists the addresses inserted since, and a
failed reading takes the map back to the choice's mark.  A branch walks
its target first and leaves its fall-through pending; once the target
side has ended, the choices opened there are settled, so a failure on the
fall-through goes back to the branch and beyond, exactly as a recursive
search that returned from the target would.  Readings are tried in
``raw_alternatives`` order, so the first theory found and the deepest
failure reported are those of that recursive search.

A failure does not always go back to the latest open choice: the search
*backjumps* (conflict-directed backjumping, Prosser 1993) over the open
choices it cannot depend on.  Its *conflict set* is computed only when a
reading fails, from the journal, read backwards from the failure: the
locations (registers, and the stack slots as one) whose types the failing
instruction inspects are *live*; a row that inspects types makes its
operands live, a ``move`` between unstarred registers passes liveness
from its destination to its source, and a row that overwrites a register
outright ends that register's liveness.  An open choice joins the set
when a location its readings may write is live just after it, and so do
the choices whose earlier readings failed before the row or choice that
now stands (their conflicts are carried along).  A call, a return, or a
branch whose target side has ended (a join, which compares whole
annotations) puts every open choice before it into the set; so does a
failure other than a missing reading or a return register that is not
``u^0``, and any failure while a unifier is in force.  The search then
undoes everything after the latest open choice in the set and tries that
choice's next reading; a choice whose readings are exhausted passes on the
conflicts of all its readings.  In a skipped subtree the chronological
search would only have rejected readings and met again, at the same
depths and in the same order, failures it has already met, so the first
theory, the verdict, the deepest failure and the error a routine raises
are exactly those of the chronological search.
Rows that only copy, compute plain words or introduce constants
(``li``, ``move``, ``addu``, ``nand``) cannot fail on any type they see,
which is what lets the choices between ``li`` and a later rejecting read
be skipped.

The search tries at most ``SEARCH_BUDGET`` readings per program; beyond
that the verdict is UNSUPPORTED with a ``SearchBudgetExhausted`` failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .annot import C0, U0, Calc, Rep, Subst, UnifyMismatch, Uncalc, apply_subst
from .annotation import Annotation, unify_annotations
from .disasm import (
    BYTE_OPS,
    READ_OPS,
    STACK_ACCESS,
    StackInstr,
    WRITE_OPS,
    raw_alternatives,
)
from .isa import RA, ZERO, Instruction, Program, reg_name
from .smallstep import PatternMismatch, apply_smallstep

BYTE_POLICIES = ("forbid", "small-structs", "permissive")
DEFAULT_POLICY = "small-structs"

SAFE, UNSAFE, UNSUPPORTED = "SAFE", "UNSAFE", "UNSUPPORTED"

# Readings one certify_program call may try before it gives up.
SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class Failure:
    addr: int | None
    rule: str | None
    kind: str
    detail: str
    recursion: bool = False  # a call cycle caused it: the verdict is UNSUPPORTED

    def __str__(self) -> str:
        where = f"0x{self.addr:08x}" if self.addr is not None else "<program>"
        rule = f" [{self.rule}]" if self.rule else ""
        return f"{self.kind} at {where}{rule}: {self.detail}"


class CertError(Exception):
    def __init__(self, failure: Failure):
        super().__init__(str(failure))
        self.failure = failure


class SearchBudgetExhausted(Exception):
    """The search tried more than ``SEARCH_BUDGET`` readings."""


@dataclass(slots=True)
class Row:
    pre: Annotation
    chosen: StackInstr
    post: Annotation
    callee: str | None = None  # routine key for gosub rows


@dataclass
class RoutineCert:
    key: str
    label: str
    entry_addr: int
    entry: Annotation
    rows: dict[int, Row]
    exit_ann: Annotation | None


@dataclass
class Theory:
    program: Program
    entry_key: str | None = None
    routines: dict[str, RoutineCert] = field(default_factory=dict)

    def call_summaries(self) -> dict[tuple[int, str], tuple[Annotation, Annotation]]:
        out = {}
        for cert in self.routines.values():
            for addr, row in cert.rows.items():
                if row.callee is not None:
                    callee = self.routines[row.callee]
                    out[(addr, callee.label)] = (callee.entry, callee.exit_ann)
        return out


@dataclass
class SearchStats:
    readings: int = 0    # readings tried
    backtracks: int = 0  # failures handed back to an open choice
    backjumps: int = 0   # of those, the ones that skipped an open choice


@dataclass
class CertReport:
    verdict: str
    theory: Theory | None
    failures: list[Failure]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def safe(self) -> bool:
        return self.verdict == SAFE


@dataclass(frozen=True)
class Violation:
    addr: int
    rule: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at 0x{self.addr:08x} [{self.rule}]: {self.detail}"


def default_entry_annotation() -> Annotation:
    from .isa import SP

    return Annotation.make(star=SP, regs={SP: C0, RA: U0, ZERO: C0})


def entry_annotation_for(program: Program, label: str) -> Annotation:
    assumed = program.assume_for(label)
    if assumed is None:
        return default_entry_annotation()
    regs = assumed.reg_map()
    regs.setdefault(ZERO, C0)  # conventionally holds the zero word
    return Annotation.make(star=assumed.star, regs=regs, slots=assumed.slot_map())


@dataclass(slots=True)
class _Choice:
    """A visit with readings still untried, and the search state to restore
    before trying the next one."""

    addr: int
    ann: Annotation
    alts: list[StackInstr]
    next: int                     # index of the next reading to try
    last_err: CertError | None
    mark: int                     # journal length when the visit began
    subst: Subst
    exit_ann: Annotation | None
    pending: tuple | None
    conf: frozenset[int]          # open choices the failed readings depended on


_NO_CONFLICTS: frozenset[int] = frozenset()
# The stack slots, as one location beside the registers 0..31.
_SLOTS = -1
# Ops whose readings cannot fail on the types they see, only on which
# register holds the stack pointer (no reading moves it) and on which
# registers are bound (the readings of one instruction bind alike).
_BLIND = frozenset({"li", "move", "addu", "nand", "nop", "j"})
# Ops whose every reading overwrites ``rd`` outright, unless an operand
# holds the stack pointer.
_REPLACES = frozenset({"li", "move", "addiu", "lw", "lb", "addu", "nand"})


def _effects(instr: Instruction, star: int | None):
    """``(blind, inspects, writes, replaced)`` for the readings of
    ``instr`` with the stack pointer in ``star``: whether they are blind to
    types, the locations whose types or bindings they may inspect, the
    locations any of them may write, and those every one of them
    overwrites.  A ``move`` between unstarred registers is blind, and its
    result is its source's type."""
    op, rd, rs, rt = instr.op, instr.rd, instr.rs, instr.rt
    regs = {r for r in (rd, rs, rt) if r is not None}
    if star in regs:
        regs.add(_SLOTS)
        return False, regs, regs, set()
    replaced = {rd} if op in _REPLACES else set()
    inspects = regs - replaced | {r for r in (rs, rt) if r is not None}
    writes = {rs} if op in ("sw", "sb") else replaced
    return op in _BLIND, inspects, writes, replaced


class _Walk:
    """The search over one routine under one entry annotation.

    ``rows`` is the one map of the routine's theory; while a choice is
    open, ``journal`` lists the addresses inserted since, so a failed
    reading takes ``rows`` back to the choice's mark.  ``pending`` is a
    linked list ``(addr, ann, height, rest)`` of branch fall-throughs still
    to walk, each with the height of ``choices`` at its branch.
    ``carried`` maps a row taken as the last reading of a choice to the
    open choices its earlier readings' failures depended on.
    """

    __slots__ = ("engine", "program", "call_stack", "rows", "journal", "choices",
                 "subst", "exit_ann", "pending", "carried")

    def __init__(self, engine: "_Engine", call_stack: tuple[int, ...]):
        self.engine = engine
        self.program = engine.program
        self.call_stack = call_stack
        self.rows: dict[int, Row] = {}
        self.journal: list[int] = []
        self.choices: list[_Choice] = []
        self.subst: Subst = {}
        self.exit_ann: Annotation | None = None
        self.pending: tuple | None = None
        self.carried: dict[int, frozenset[int]] = {}

    def run(self, addr: int, ann: Annotation) -> None:
        """Walk from ``addr`` under ``ann`` until every path has ended;
        raises the :class:`CertError` that ends the last open choice."""
        while True:
            try:
                step = self._visit(addr, ann) or self._next_pending()
            except CertError as e:
                err = e
            else:
                if step is None:
                    return
                addr, ann = step
                continue
            if not self.choices:
                raise err
            f = err.failure
            if f.kind in ("NoDisassembly", "ReturnRegisterNotU0"):
                conf = self._conflicts(f.addr, ann.star)
            else:
                conf = self._open()
            addr, ann = self._backtrack(err, conf)

    def _visit(self, addr: int, ann: Annotation):
        """Arrive at ``addr``; returns where the path goes next, or None
        when it ends here."""
        if self.subst:
            ann = ann.substituted(self.subst)
        rows = self.rows
        row = rows.get(addr)
        if row is not None:
            # convergence: a revisited address must carry the same annotation
            try:
                self.subst = unify_annotations(row.pre, ann, self.subst)
            except UnifyMismatch as e:
                label = self.program.label_at(addr)
                raise self.engine._record(len(rows), Failure(
                    addr, None, "AnnotationMismatch",
                    f"join at {label or hex(addr)}: {e} "
                    f"(recorded: {row.pre}; incoming: {ann})"))
            return None

        instr = self.program.instruction_at(addr)
        if instr is None:
            raise self.engine._record(len(rows), Failure(
                addr, None, "NoInstruction", "control flow left the code segment"))
        alts = raw_alternatives(instr, ann.star, self.program.blobs)
        alts = [s for s in alts if self.engine._policy_allows(s, ann)]
        return self._choose(addr, ann, alts, 0, None, _NO_CONFLICTS)

    def _choose(self, addr: int, ann: Annotation, alts: list[StackInstr], i: int,
                last_err: CertError | None, conf: frozenset[int]):
        """Take the first reading from ``alts[i:]`` whose own step succeeds,
        leaving a choice open when readings remain after it.  ``conf`` holds
        the open choices that the readings before ``i`` failed on."""
        reasons: list[str] = []
        choices = self.choices
        engine = self.engine
        while i < len(alts):
            s = alts[i]
            i += 1
            engine.readings += 1
            if i < len(alts):
                choices.append(_Choice(addr, ann, alts, i, last_err, len(self.journal),
                                       self.subst, self.exit_ann, self.pending, conf))
            try:
                step = self._take(addr, ann, s)
            except PatternMismatch as e:
                reasons.append(str(e))
            except CertError as e:
                last_err = e
            else:
                if conf and i == len(alts):
                    self.carried[addr] = conf
                return step
            if i < len(alts):
                self._undo(choices.pop().mark)
        if last_err is not None:
            raise last_err
        detail = "; ".join(reasons) if reasons else "no stack-machine reading exists"
        instr = self.program.instruction_at(addr)
        raise engine._record(len(self.rows), Failure(addr, str(instr), "NoDisassembly",
                                                     detail))

    def _take(self, addr: int, ann: Annotation, s: StackInstr):
        """Apply reading ``s`` at ``addr`` and record its row; returns where
        the path goes next, or None when it ends here."""
        op = s.op
        rows = self.rows
        if op == "gosub":
            post, callee_key = self.engine._handle_call(addr, s, ann, len(rows), self.subst,
                                                        self.call_stack)
            self._insert(addr, Row(ann, s, post, callee=callee_key))
            return addr + 4, post

        if op == "return":
            t = ann.reg(s.rd)
            if t is not None:
                t = apply_subst(t, self.subst)
            if t != U0:
                raise self.engine._record(len(rows), Failure(
                    addr, str(s), "ReturnRegisterNotU0",
                    f"{reg_name(s.rd)} holds {t}, not a return address"))
            self._insert(addr, Row(ann, s, ann))
            if self.exit_ann is None:
                self.exit_ann = ann
                return None
            try:
                self.subst = unify_annotations(self.exit_ann, ann, self.subst)
            except UnifyMismatch as e:
                raise self.engine._record(len(rows), Failure(
                    addr, str(s), "AnnotationMismatch", f"exit annotations differ: {e}"))
            return None

        post = apply_smallstep(s, ann)  # may raise PatternMismatch
        self._insert(addr, Row(ann, s, post))
        if op == "goto":
            return self.program.resolve(s.target), post
        if op in ("ifnz", "ifeq"):
            # the branch target first; the fall-through once it has ended
            self.pending = (addr + 4, post, len(self.choices), self.pending)
            return self.program.resolve(s.target), post
        return addr + 4, post

    def _insert(self, addr: int, row: Row) -> None:
        self.rows[addr] = row
        if self.choices:
            self.journal.append(addr)

    def _undo(self, mark: int) -> None:
        rows, journal, carried = self.rows, self.journal, self.carried
        while len(journal) > mark:
            addr = journal.pop()
            del rows[addr]
            if carried:
                carried.pop(addr, None)

    def _next_pending(self):
        """Resume the latest pending fall-through.  The choices opened on
        the branch's target side are settled: a failure on the
        fall-through goes back to the branch, not into that side."""
        if self.pending is None:
            return None
        addr, ann, height, self.pending = self.pending
        del self.choices[height:]
        if not self.choices:
            self.journal.clear()
        return addr, ann

    def _open(self) -> frozenset[int]:
        return frozenset(c.addr for c in self.choices)

    def _conflicts(self, addr: int, star: int | None) -> frozenset[int]:
        """The open choices that a failure of the instruction at ``addr``,
        with the stack pointer in ``star``, depends on (see the module
        docstring); every open choice while a unifier is in force."""
        choices, journal, rows = self.choices, self.journal, self.rows
        instr = self.program.instruction_at(addr)
        if self.subst or instr.op == "jal":
            return self._open()
        live = _effects(instr, star)[1]
        pending = set()
        p = self.pending
        while p is not None:
            pending.add(p[0])
            p = p[3]
        out: set[int] = set()
        for c in choices:
            out |= c.conf
        k = len(choices) - 1
        for pos in range(len(journal) - 1, -1, -1):
            a = journal[pos]
            while k >= 0 and choices[k].mark > pos:
                k -= 1
            instr = self.program.instruction_at(a)
            op = instr.op
            if op in ("jal", "jr") or (op in ("bnez", "beq") and a + 4 not in pending):
                # a call, or a path that has ended since: a join or a
                # return compares what every choice before it wrote
                out.update(c.addr for c in choices[:k + 1])
                break
            blind, inspects, writes, replaced = _effects(instr, rows[a].pre.star)
            if k >= 0 and choices[k].mark == pos and writes & live:
                out.add(a)
            carried = self.carried.get(a)
            if carried:
                out |= carried
            if blind:
                if writes & live:
                    live -= replaced
                    if op == "move":
                        live.add(instr.rs)
            else:
                live -= replaced
                live |= inspects
        return frozenset(out)

    def _backtrack(self, err: CertError, conf: frozenset[int]):
        """Hand ``err`` to the latest open choice in ``conf``, undoing
        everything after it, and try that choice's next reading; an
        exhausted choice passes the conflicts of its readings on.  Raises
        ``err`` when no choice in the conflicts is left."""
        engine = self.engine
        choices = self.choices
        while True:
            if engine.readings > SEARCH_BUDGET:
                raise SearchBudgetExhausted
            t = len(choices) - 1
            while t >= 0 and choices[t].addr not in conf:
                t -= 1
            if t < 0:
                raise err
            engine.backtracks += 1
            if t < len(choices) - 1:
                engine.backjumps += 1
            c = choices[t]
            del choices[t:]
            self._undo(c.mark)
            self.subst, self.exit_ann, self.pending = c.subst, c.exit_ann, c.pending
            c.conf = c.conf | (conf & self._open())
            try:
                return self._choose(c.addr, c.ann, c.alts, c.next, err, c.conf)
            except CertError as e:
                err = e
            conf = c.conf | self._conflicts(c.addr, c.ann.star)


class _Engine:
    def __init__(self, program: Program, policy: str):
        if policy not in BYTE_POLICIES:
            raise ValueError(f"unknown byte policy {policy!r}")
        self.program = program
        self.policy = policy
        self.theory = Theory(program)
        self.memo: dict[tuple[int, Annotation], RoutineCert | CertError] = {}
        self.deepest: tuple[int, Failure] | None = None
        self.readings = 0
        self.backtracks = 0
        self.backjumps = 0

    def stats(self) -> SearchStats:
        return SearchStats(self.readings, self.backtracks, self.backjumps)

    # -- failure bookkeeping ------------------------------------------------

    def _record(self, depth: int, failure: Failure) -> CertError:
        if self.deepest is None or depth >= self.deepest[0]:
            self.deepest = (depth, failure)
        return CertError(failure)

    # -- routine certification ------------------------------------------------

    def certify_routine(self, entry_addr: int, entry: Annotation,
                        call_stack: tuple[int, ...]) -> RoutineCert:
        key = (entry_addr, entry)
        hit = self.memo.get(key)
        if hit is not None:
            if isinstance(hit, CertError):
                raise hit
            return hit
        label = self.program.label_at(entry_addr) or f"0x{entry_addr:08x}"
        walk = _Walk(self, call_stack + (entry_addr,))
        try:
            walk.run(entry_addr, entry)
        except CertError as e:
            self.memo[key] = e
            raise
        rows, subst, exit_ann = walk.rows, walk.subst, walk.exit_ann
        if subst:
            rows = {a: Row(r.pre.substituted(subst), r.chosen,
                           r.post.substituted(subst), r.callee)
                    for a, r in rows.items()}
            entry = entry.substituted(subst)
            if exit_ann is not None:
                exit_ann = exit_ann.substituted(subst)
        digest = hashlib.sha1(str(entry).encode()).hexdigest()[:8]
        cert = RoutineCert(f"{label}@{digest}", label, entry_addr, entry, rows, exit_ann)
        self.theory.routines[cert.key] = cert
        self.memo[key] = cert
        return cert

    # -- the refined calling convention ---------------------------------------

    def _handle_call(self, site: int, s: StackInstr, ann: Annotation,
                     depth: int, subst: Subst, call_stack: tuple[int, ...]):
        star = ann.star
        if star is None:  # the pre-pattern of gosub, as in smallstep.pattern_matches
            raise PatternMismatch(str(s), "no register holds the stack pointer")
        caller_star_type = ann.star_type()
        callee_addr = self.program.resolve(s.target)
        label = s.target if isinstance(s.target, str) else (
            self.program.label_at(callee_addr) or hex(callee_addr))
        if callee_addr in call_stack:
            raise self._record(depth, Failure(
                site, str(s), "RecursionUnsupported",
                f"call cycle through {label}", recursion=True))
        # the callee sees the caller's registers, a fresh return address, and
        # an empty local frame in the same stack-pointer register
        entry = ann.set_reg(RA, U0).set_reg(star, C0).with_slots()
        if subst:
            entry = entry.substituted(subst)
        try:
            cert = self.certify_routine(callee_addr, entry, call_stack)
        except CertError as e:
            raise self._record(depth, Failure(
                site, str(s), "CalleeUnsafe",
                f"{label}: {e.failure}", recursion=e.failure.recursion)) from e
        if cert.exit_ann is None:
            raise self._record(depth, Failure(
                site, str(s), "CalleeUnsafe", f"{label} never returns"))
        exit_ann = cert.exit_ann
        if exit_ann.star != star or exit_ann.star_type() != C0:
            raise self._record(depth, Failure(
                site, str(s), "StackNotRestored",
                f"{label} hands back {exit_ann.star_type()} in "
                f"{reg_name(exit_ann.star) if exit_ann.star is not None else '?'}"))
        # callee exit registers flow to the caller; the caller's own frame
        # and slot bindings come back untouched
        post = exit_ann.set_reg(star, caller_star_type).with_slots(ann.slots)
        return post, cert.key

    # -- byte-access policy ----------------------------------------------------

    def _policy_allows(self, s: StackInstr, ann: Annotation) -> bool:
        return s.op not in BYTE_OPS or _byte_policy_reason(s, ann, self.policy) is None


def _byte_policy_reason(s: StackInstr, ann: Annotation, policy: str) -> str | None:
    """Why ``policy`` forbids byte access ``s`` under ``ann``, or None.
    Under ``small-structs``, byte access is allowed only on structures too
    small for word access to reach."""
    if policy == "permissive":
        return None
    if policy == "forbid":
        return "byte access is disabled by policy"
    if s.op in ("getb", "putb"):
        return "byte access to the word-written stack"
    base = ann.reg(s.rs)
    if s.op in ("getbx", "putbx"):
        if isinstance(base, Calc) and isinstance(base.tower, Rep) and base.tower.step < 4:
            return None
        return f"string step must be < 4 for byte access, base {base}"
    if isinstance(base, Uncalc) and base.size < 4:
        return None
    return f"array size must be < 4 for byte access, base {base}"


def handle_call(program: Program, site: int, callee: str, ann: Annotation,
                policy: str = DEFAULT_POLICY) -> Annotation:
    """Certify one call in isolation and produce the caller's continuation
    annotation.  Raises :class:`CertError` on any calling-convention or
    callee failure, and :class:`PatternMismatch` when no register holds the
    stack pointer."""
    engine = _Engine(program, policy)
    s = StackInstr("gosub", target=callee)
    post, _ = engine._handle_call(site, s, ann, 0, {}, ())
    return post


def certify_program(program: Program, entry: str | None = None,
                    policy: str = DEFAULT_POLICY) -> CertReport:
    """Infer a covering theory for ``program`` from its entry label."""
    label = entry or program.entry_label()
    if label is None:
        return CertReport(UNSUPPORTED, None,
                          [Failure(None, None, "UnreachableEntry",
                                   "no entry pragma and no --entry given")])
    if label not in program.labels:
        return CertReport(UNSUPPORTED, None,
                          [Failure(None, None, "UnreachableEntry",
                                   f"entry label {label!r} is not defined")])
    engine = _Engine(program, policy)
    entry_ann = entry_annotation_for(program, label)
    theory = engine.theory
    try:
        cert = engine.certify_routine(program.labels[label], entry_ann, ())
    except SearchBudgetExhausted:
        return CertReport(UNSUPPORTED, None,
                          [Failure(None, None, "SearchBudgetExhausted",
                                   f"tried more than {SEARCH_BUDGET} readings")],
                          engine.stats())
    except CertError as e:
        failure = engine.deepest[1] if engine.deepest else e.failure
        verdict = UNSUPPORTED if failure.recursion or e.failure.recursion else UNSAFE
        return CertReport(verdict, theory, [failure], engine.stats())
    theory.entry_key = cert.key
    return CertReport(SAFE, theory, [], engine.stats())


# --------------------------------------------------------------------------
# post-hoc safety re-validation


def check_safety(theory: Theory, policy: str = DEFAULT_POLICY) -> list[Violation]:
    """Re-walk every chosen stack/heap access in a theory, confirming the
    write-bound and read-after-write guards against the recorded
    pre-annotations and enforcing the byte policy.  An empty result means
    the theory exhibits only single-calculation addressing."""
    from .annot import AnnotError, check_read, record_write

    out: list[Violation] = []
    for cert in theory.routines.values():
        for addr, row in sorted(cert.rows.items()):
            s = row.chosen
            if s.op in BYTE_OPS:
                reason = _byte_policy_reason(s, row.pre, policy)
                if reason is not None:
                    out.append(Violation(addr, str(s), "BytePolicyForbidden", reason))
            if s.op not in READ_OPS and s.op not in WRITE_OPS:
                continue
            if s.op in STACK_ACCESS:
                base = row.pre.star_type()
            else:
                base = row.pre.reg(s.rs)
            if base is None:
                out.append(Violation(addr, str(s), "MissingBase",
                                     "no type for the base register"))
                continue
            try:
                if s.op in WRITE_OPS:
                    record_write(base, s.n, s.width())
                else:
                    check_read(base, s.n, s.width())
            except AnnotError as e:
                kind = type(e).__name__
                out.append(Violation(addr, str(s), kind, str(e)))
    return out

