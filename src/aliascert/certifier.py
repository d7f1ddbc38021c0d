"""Annotation inference over whole programs.

A depth-first search over disassembly choices drives the per-instruction
rules along the control-flow graph.  The first arrival at an address
records its annotation; every later arrival must unify with it exactly
(no widening), which realizes the loop/branch convergence requirement.
A call certifies the callee under the annotation at its site, by the
convention that a routine builds and destroys its own frame and hands the
stack pointer back in the register it arrived in, with an empty frame.

The search over one routine is a loop, not a recursion, so its cost is
linear in the instructions it visits and its depth is not bounded by
Python's stack (only call nesting recurses, once per routine on the call
chain).  No instruction has more than two readings.  A visit that takes
the first of two opens a *choice* on a stack, holding the second reading
and the state to restore: the search state and a mark into an undo
*journal*.  The routine's rows live in one mutable map; while a choice is
open, the journal lists the addresses inserted since, and a failed
reading takes the map back to the choice's mark.  A branch walks
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
locations (registers, and the stack slots as one) whose types or bindings
the failing instruction inspects are *live*.  Going back over a row ends
the liveness of a register it overwrites outright and makes the
locations it inspects live; a blind row, which cannot fail on any type it
sees, does so only when a location it writes is live, so a copy passes
liveness from its destination to its source.  An open choice joins the
set when a location its readings may write is live just after it, and so
do the choices that a row taken as a choice's second reading carries:
those its first reading's failure depended on.  A call, a return,
or a branch whose target side has ended (a join, which compares whole
annotations) puts every open choice before it into the set; so does a
failure other than a missing reading or a return register that is not
``u^0``, and any failure while a unifier is in force.  (A call misses
its reading only where no register holds the stack pointer, which no
reading changes, so that failure makes no location live.)  The search
then undoes everything after the latest open choice in the set and tries
the reading that choice holds; when that fails too, the choice passes on
the conflicts of both its readings.  In a skipped subtree the
chronological search would only have rejected readings and met again, at
the same depths and in the same order, failures it has already met, so
the first theory, the verdict, the deepest failure and the error a
routine raises are exactly those of the chronological search.
`disasm.READINGS` states which readings are blind (those that only copy,
compute plain words or introduce constants) and which operand each one
writes; `_effects` derives each instruction's effects from that table
alone, and a test checks them against the small-step rules.  Blind
rows are what let the choices between a constant's readings and a later
rejecting read be skipped.

One call keeps two memos, which live and die with it, and each fact is
recorded once.  The routine memo holds each routine's outcome, its
certificate or its error, by entry address and annotation.  The readings
memo holds each instruction's readings by where the stack pointer is,
with whether any of them is a byte access, the only kind the byte policy
filters at a visit, and its effects above, added the first time a
failure's conflict analysis reads them.  A reading the byte policy
rejects costs the search a predicate, never a message: only the safety
re-check says why.

A :class:`Theory`, the certificate, exists only for a SAFE verdict.
``certify_program`` builds it once from the routine memo: the entry
routine and every routine its rows call, through ``Row.callee``, in the
order they were certified.  A routine that only a reading the search
abandoned called is in the memo, and not in the certificate.

The search tries at most ``SEARCH_BUDGET`` readings per program; beyond
that the verdict is UNSUPPORTED with a ``SearchBudgetExhausted`` failure.
Each routine on the call chain takes a few of Python's stack frames, so
calls nested deeper than Python's stack allows (about 190 routines at
the default recursion limit) give UNSUPPORTED with a
``CallDepthExceeded`` failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .annot import (C0, U0, AnnotError, Annotation, Calc, Rep, Subst, UnifyMismatch, Uncalc,
                    check_access, check_frame, unify_annotations)
from .disasm import (
    BYTE_OPS,
    NEITHER,
    READ_OPS,
    READINGS,
    STACK_ACCESS,
    StackInstr,
    WRITE_OPS,
    raw_alternatives,
)
from .isa import FORMATS, RA, SP, ZERO, Instruction, Program, reg_name
from .smallstep import PatternMismatch, apply_smallstep

BYTE_POLICIES = ("forbid", "small-structs", "permissive")
DEFAULT_POLICY = "small-structs"

SAFE, UNSAFE, UNSUPPORTED = "SAFE", "UNSAFE", "UNSUPPORTED"

# Readings one certify_program call may try before it gives up.
SEARCH_BUDGET = 1_000_000


@dataclass(frozen=True)
class Failure:
    """Why the search or the re-check refused an instruction.  A
    ``NoDisassembly`` failure holds each reading it tried with the reason
    it was rejected, and a ``CalleeUnsafe`` failure its callee's label in
    ``note`` and the callee's own failure; ``detail`` renders them."""

    addr: int | None
    rule: str | None
    kind: str
    note: str
    rejected: tuple[tuple[str, str], ...] = ()  # (reading, reason) per reading tried
    callee: Failure | None = None

    @property
    def detail(self) -> str:
        if self.callee is not None:
            return f"{self.note}: {self.callee}"
        return "; ".join(f"{reading}: {why}" for reading, why in self.rejected) or self.note

    @property
    def recursion(self) -> bool:
        """Whether a call cycle caused it: the verdict is UNSUPPORTED."""
        return self.kind == "RecursionUnsupported" or bool(self.callee and self.callee.recursion)

    def __str__(self) -> str:
        where = f"0x{self.addr:08x}" if self.addr is not None else "<program>"
        rule = f" [{self.rule}]" if self.rule else ""
        return f"{self.kind} at {where}{rule}: {self.detail}"


class CertError(Exception):
    def __init__(self, failure: Failure):
        super().__init__(failure)
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
    """The certificate of a SAFE verdict: the entry routine's key, and the
    entry routine and every routine its rows call, by key."""

    program: Program
    entry_key: str
    routines: dict[str, RoutineCert]


@dataclass(slots=True)
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


def entry_annotation_for(program: Program) -> Annotation:
    assumed = program.assumes.get(program.entry)
    if assumed is None:
        return Annotation.make(star=SP, regs={SP: C0, RA: U0, ZERO: C0})
    if assumed.reg(ZERO) is not None:
        return assumed
    return assumed.set_reg(ZERO, C0)  # conventionally holds the zero word


@dataclass(slots=True)
class _Choice:
    """A visit that took the first of two readings: the second, and the
    search state to restore before trying it."""

    addr: int
    ann: Annotation
    alt: StackInstr
    mark: int                     # journal length when the visit began
    subst: Subst
    exit_ann: Annotation | None
    pending: tuple | None


# The stack slots, as one location beside the registers 0..31.
_SLOTS = -1


def _unstarred(readings: tuple, same: bool):
    """``(blind, outright, written)`` for the readings that admit no
    operand holding the stack pointer, with ``same`` whether ``rd`` and
    ``rs`` are one register: whether every one is blind, whether every one
    overwrites ``rd`` outright, and the operands any of them writes."""
    admitted = [r for r in readings if r.admits(NEITHER, same)]
    return (all(r.blind for r in admitted), all(r.writes == "rd" for r in admitted),
            tuple(sorted({r.writes for r in admitted} - {None})))


# What the search knows of each mnemonic's readings, keyed by mnemonic and ``same``.
_EFFECTS = {(m, same): _unstarred(READINGS[m], same) for m in FORMATS for same in (False, True)}


def _effects(instr: Instruction, star: int | None):
    """``(blind, inspects, writes, replaced)`` for the readings of
    ``instr`` with the stack pointer in ``star``: whether they are blind to
    types, the locations whose types or bindings they may inspect, the
    locations any of them may write, and those every one of them
    overwrites without reading, each as a frozenset.  An operand that
    holds the stack pointer makes every operand and the stack slots
    inspected and written."""
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    regs = {r for r in (rd, rs, rt) if r is not None}
    if star in regs:
        regs = frozenset(regs | {_SLOTS})
        return False, regs, regs, frozenset()
    blind, outright, written = _EFFECTS[instr.op, rd == rs]
    inspects = {r for r in (rs, rt) if r is not None}
    replaced = frozenset()
    if outright and rd not in inspects:
        replaced = frozenset((rd,))
    elif rd is not None:
        inspects.add(rd)
    return (blind, frozenset(inspects), frozenset(getattr(instr, f) for f in written),
            replaced)


class _Walk:
    """The search over one routine under one entry annotation.

    ``rows`` is the one map of the routine's theory; while a choice is
    open, ``journal`` lists the addresses inserted since, so a failed
    reading takes ``rows`` back to the choice's mark.  ``pending`` is a
    linked list ``(addr, ann, height, rest)`` of branch fall-throughs still
    to walk, each with the height of ``choices`` at its branch.
    ``carried`` maps a row taken as a choice's second reading to the open
    choices its first reading's failure depended on.
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
        """Arrive at ``addr`` and take the first reading whose own step
        succeeds; taking the first of two opens a choice holding the
        second.  Returns where the path goes next, or None when it ends
        here."""
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
        engine = self.engine
        key = (id(instr), ann.star)
        hit = engine.readings.get(key)
        if hit is None:
            alts = tuple(raw_alternatives(instr, ann.star, self.program.blobs))
            hit = engine.readings[key] = [instr, alts, any(s.op in BYTE_OPS for s in alts), None]
        _, alts, byte, _ = hit
        if byte:
            policy = engine.policy
            alts = [s for s in alts if _policy_allows(s, ann, policy)]
        opened = len(alts) == 2
        if opened:
            self.choices.append(_Choice(addr, ann, alts[1], len(self.journal),
                                        self.subst, self.exit_ann, self.pending))
        rejected = []
        err = None
        for s in alts:
            engine.stats.readings += 1
            try:
                return self._take(addr, ann, s)
            except PatternMismatch as e:
                rejected.append((e.rule, e.reason))
            except CertError as e:
                err = e
            if opened:  # the first of two failed at once: try the second with no choice open
                opened = False
                self._undo(self.choices.pop().mark)
        if err is not None:
            raise err
        raise engine._record(len(rows), Failure(
            addr, str(instr), "NoDisassembly", "no stack-machine reading exists", tuple(rejected)))

    def _take(self, addr: int, ann: Annotation, s: StackInstr):
        """Apply reading ``s`` at ``addr`` and record its row; returns where
        the path goes next, or None when it ends here."""
        op = s.op
        rows = self.rows
        if op == "gosub":
            post, callee_key = self.engine._gosub(addr, s, ann, len(rows), self.call_stack)
            self._insert(addr, Row(ann, s, post, callee=callee_key))
            return addr + 4, post

        if op == "return":
            t = ann.reg(s.rd)
            if t != U0:
                raise self.engine._record(len(rows), Failure(
                    addr, str(s), "ReturnRegisterNotU0",
                    f"register {reg_name(s.rd)} is unbound" if t is None
                    else f"{reg_name(s.rd)} holds {t}, not a return address"))
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
        if self.subst:
            return self._open()
        effects = self.engine.effects_of
        # a copy of what the failing instruction inspects: the walk back changes it
        live = set(effects(self.program.instruction_at(addr), star)[1])
        pending = set()
        p = self.pending
        while p is not None:
            pending.add(p[0])
            p = p[3]
        out: set[int] = set()
        k = len(choices) - 1
        for pos in range(len(journal) - 1, -1, -1):
            a = journal[pos]
            while k >= 0 and choices[k].mark > pos:
                k -= 1
            row = rows[a]
            op = row.chosen.op
            if op in ("gosub", "return") or (op in ("ifnz", "ifeq") and a + 4 not in pending):
                # a call, or a path that has ended since: a join or a
                # return compares what every choice before it wrote
                out.update(c.addr for c in choices[:k + 1])
                break
            blind, inspects, writes, replaced = effects(self.program.instruction_at(a),
                                                        row.pre.star)
            touched = not writes.isdisjoint(live)
            if touched and k >= 0 and choices[k].mark == pos:
                out.add(a)
            carried = self.carried.get(a)
            if carried:
                out |= carried
            if touched or not blind:
                live -= replaced
                live |= inspects
        return frozenset(out)

    def _backtrack(self, err: CertError, conf: frozenset[int]):
        """Hand ``err`` to the latest open choice in ``conf``, undoing
        everything after it, and try the reading that choice holds; when
        that fails too, the choice passes the conflicts of both readings
        on.  Raises ``err`` when no choice in the conflicts is left."""
        stats = self.engine.stats
        choices = self.choices
        while True:
            if stats.readings > SEARCH_BUDGET:
                raise SearchBudgetExhausted
            t = len(choices) - 1
            while t >= 0 and choices[t].addr not in conf:
                t -= 1
            if t < 0:
                raise err
            stats.backtracks += 1
            if t < len(choices) - 1:
                stats.backjumps += 1
            c = choices[t]
            del choices[t:]
            self._undo(c.mark)
            self.subst, self.exit_ann, self.pending = c.subst, c.exit_ann, c.pending
            conf &= self._open()
            stats.readings += 1
            try:
                step = self._take(c.addr, c.ann, c.alt)
            except PatternMismatch:
                pass
            except CertError as e:
                err = e
            else:
                if conf:
                    self.carried[c.addr] = conf
                return step
            conf |= self._conflicts(c.addr, c.ann.star)


class _Engine:
    """The search state of one :func:`certify_program` call.

    ``memo`` holds each routine's outcome, its :class:`RoutineCert` or
    its :class:`CertError`, by entry address and annotation, in the order
    the routines ended; it is the one record of them, and a SAFE
    verdict's certificate is read from it.  ``readings`` holds, for each
    instruction object by ``(id(instr), star)``, the list ``[instr, alts,
    byte, effects]``: the instruction, so no id is reused while the engine
    lives; its ``raw_alternatives``, which repeated lines and the walks
    after a backtrack share; whether any of them is a byte access; and
    its :func:`_effects`, None until the conflict analysis of a failure
    first reads them.  The byte policy reads the annotation, so it is
    applied anew at every visit, and only where a byte access is among the
    readings.
    """

    def __init__(self, program: Program, policy: str):
        self.program = program
        self.policy = policy
        self.memo: dict[tuple[int, Annotation], RoutineCert | CertError] = {}
        self.readings: dict[tuple[int, int | None], list] = {}
        self.deepest: tuple[int, Failure] | None = None
        self.stats = SearchStats()

    def effects_of(self, instr: Instruction, star: int | None) -> tuple:
        """The :func:`_effects` of ``instr``, a visited instruction, with
        the stack pointer in ``star``."""
        hit = self.readings[id(instr), star]
        if hit[3] is None:
            hit[3] = _effects(instr, star)
        return hit[3]

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
        self.memo[key] = cert
        return cert

    # -- the refined calling convention ---------------------------------------

    def _gosub(self, site: int, s: StackInstr, ann: Annotation,
               depth: int, call_stack: tuple[int, ...]):
        """The call ``s`` under ``ann``, which the walk has substituted."""
        star = ann.star
        if star is None:  # the pre-pattern of gosub
            raise PatternMismatch(str(s), "no register holds the stack pointer")
        caller_star_type = ann.star_type()
        callee_addr = self.program.resolve(s.target)
        label = s.target if isinstance(s.target, str) else (
            self.program.label_at(callee_addr) or hex(callee_addr))
        if callee_addr in call_stack:
            raise self._record(depth, Failure(
                site, str(s), "RecursionUnsupported",
                f"call cycle through {label}"))
        # the callee sees the caller's registers, a fresh return address, and
        # an empty local frame in the same stack-pointer register
        entry = ann.set_reg(RA, U0).set_reg(star, C0).with_slots()
        try:
            cert = self.certify_routine(callee_addr, entry, call_stack)
        except CertError as e:
            raise self._record(depth, Failure(
                site, str(s), "CalleeUnsafe", label, callee=e.failure)) from e
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


# --------------------------------------------------------------------------
# the byte-access policy


def _policy_allows(s: StackInstr, ann: Annotation, policy: str) -> bool:
    """Whether byte ``policy`` admits reading ``s`` under ``ann``.  Every
    reading but a byte access is admitted; under ``small-structs``, byte
    access is allowed only on structures too small for word access to
    reach: a string of step below 4, or an array of fewer than 4 bytes."""
    op = s.op
    if op not in BYTE_OPS or policy == "permissive":
        return True
    if policy == "forbid" or op in ("getb", "putb"):
        return False
    base = ann.reg(s.rs)
    if op in ("getbx", "putbx"):
        return isinstance(base, Calc) and isinstance(base.tower, Rep) and base.tower.step < 4
    return isinstance(base, Uncalc) and base.size < 4


def _byte_policy_reason(s: StackInstr, ann: Annotation, policy: str) -> str:
    """Why ``policy`` forbids byte access ``s`` under ``ann``, a reading
    that :func:`_policy_allows` refuses."""
    if policy == "forbid":
        return "byte access is disabled by policy"
    if s.op in ("getb", "putb"):
        return "byte access to the word-written stack"
    what = "string step" if s.op in ("getbx", "putbx") else "array size"
    base = ann.reg(s.rs) or f"register {reg_name(s.rs)} is unbound"
    return f"{what} must be < 4 for byte access, base {base}"


def _check_policy(policy: str) -> None:
    if policy not in BYTE_POLICIES:
        raise ValueError(f"unknown byte policy {policy!r}")


def certify_program(program: Program, policy: str = DEFAULT_POLICY) -> CertReport:
    """Infer a covering theory for ``program`` from its entry label."""
    _check_policy(policy)
    try:
        entry_addr = program.entry_address()
    except ValueError as e:
        return CertReport(UNSUPPORTED, None, [Failure(None, None, "UnreachableEntry", str(e))])
    engine = _Engine(program, policy)
    try:
        cert = engine.certify_routine(entry_addr, entry_annotation_for(program), ())
    except SearchBudgetExhausted:
        verdict, failure = UNSUPPORTED, Failure(None, None, "SearchBudgetExhausted",
                                                f"tried more than {SEARCH_BUDGET} readings")
    except RecursionError:
        verdict, failure = UNSUPPORTED, Failure(None, None, "CallDepthExceeded",
                                                "calls nest deeper than Python's stack allows")
    except CertError as e:
        # every CertError comes from _record, so a deepest failure is set;
        # a call cycle makes the verdict, so the failure it ends in is named
        failure = engine.deepest[1]
        if e.failure.recursion and not failure.recursion:
            failure = e.failure
        verdict = UNSUPPORTED if failure.recursion else UNSAFE
    else:
        return CertReport(SAFE, Theory(program, cert.key, _called(engine.memo, cert)), [],
                          engine.stats)
    return CertReport(verdict, None, [failure], engine.stats)


def _called(memo: dict, entry: RoutineCert) -> dict[str, RoutineCert]:
    """The routines of ``memo`` that ``entry`` reaches through
    ``Row.callee``, itself included, by key in the order they were
    certified; of two certificates under one key, the later one."""
    certs = {c.key: c for c in memo.values() if isinstance(c, RoutineCert)}
    reached, todo = {entry.key}, [entry]
    while todo:
        callees = {row.callee for row in todo.pop().rows.values()} - reached - {None}
        reached |= callees
        todo += [certs[key] for key in callees]
    return {key: c for key, c in certs.items() if key in reached}


# --------------------------------------------------------------------------
# post-hoc safety re-validation


def check_safety(theory: Theory, policy: str = DEFAULT_POLICY) -> list[Failure]:
    """Re-walk every chosen stack/heap access and push in a theory,
    confirming the write-bound, read-after-write and alignment guards
    against the recorded pre-annotations and enforcing the byte policy.
    An empty result means the theory exhibits only single-calculation
    addressing."""
    _check_policy(policy)
    out: list[Failure] = []
    for cert in theory.routines.values():
        for addr, row in sorted(cert.rows.items()):
            s = row.chosen
            if not _policy_allows(s, row.pre, policy):
                out.append(Failure(addr, str(s), "BytePolicyForbidden",
                                   _byte_policy_reason(s, row.pre, policy)))
            try:
                if s.op == "push":
                    check_frame(s.n)
                elif s.op in READ_OPS or s.op in WRITE_OPS:
                    base = row.pre.star_type() if s.op in STACK_ACCESS else row.pre.reg(s.rs)
                    if base is None:
                        out.append(Failure(addr, str(s), "MissingBase",
                                           "no type for the base register"))
                        continue
                    check_access(base, s.n, s.width(), write=s.op in WRITE_OPS)
            except AnnotError as e:
                kind = type(e).__name__
                out.append(Failure(addr, str(s), kind, str(e)))
    return out

