"""The annotation calculus: annotated types, bindings, unification, the
access guard and the canonical text of types and annotations.

A value description is either *calculated* (``c``) -- it may be recomputed,
and carries a tower of nested frame sizes or a repeating step -- or
*uncalculated* (``u``) -- an opaque pointer of fixed byte size that must
never be recomputed.  Both carry the set of byte offsets already written
through the value when it was used as a base address.  Type variables and
offset-set variables stand in for unknown types/sets and are resolved by
first-order unification.

An :class:`Annotation` binds registers and stack slots to types.  Every
memory access goes through one guard, :func:`check_access`: the offset
stays inside the bound, a read follows a write there, and a word access
stays on a word boundary.  Annotations render canonically as
``sp*=c^[32,0]!{16,24,28}, ra=u^0, ...`` with registers in index order,
then slots ``(n)=...`` ascending; towers are written current-frame first.
``parse_annotation`` reads that text back, and is the grammar of program
hypotheses and golden annotations alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .isa import REG_INDEX, REG_NAMES, reg_name

WORD = 4


class AnnotError(Exception):
    """Base class for annotated-type operation failures."""


class NotStackLike(AnnotError):
    pass


class NonPositiveFrame(AnnotError):
    pass


class FrameMismatch(AnnotError):
    pass


class ImmutableValue(AnnotError):
    pass


class UnresolvedVariable(AnnotError):
    pass


class Misaligned(AnnotError):
    pass


class OutOfBounds(AnnotError):
    pass


class ReadBeforeWrite(AnnotError):
    pass


class UnifyMismatch(AnnotError):
    def __init__(self, t1, t2):
        super().__init__(f"cannot unify {t1} with {t2}")


# --------------------------------------------------------------------------
# towers and offset sets


@dataclass(frozen=True, slots=True)
class Finite:
    """Nested frame sizes, current frame first."""

    frames: tuple[int, ...]

    def __post_init__(self):
        if not self.frames:
            raise ValueError("finite tower must be non-empty")
        if any(f < 0 for f in self.frames):
            raise ValueError("frame sizes are byte counts >= 0")

    def __str__(self) -> str:
        return "[" + ",".join(str(f) for f in self.frames) + "]"


@dataclass(frozen=True, slots=True)
class Rep:
    """Indefinitely repeating tower of one step size (a string pointer)."""

    step: int

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("repeating step must be >= 1")

    def __str__(self) -> str:
        return f"rep({self.step})"


Tower = Union[Finite, Rep]


@dataclass(frozen=True, slots=True)
class SetVar:
    """A formal stand-in for an unknown set of offsets."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


# a concrete set of byte offsets written through the value, or a variable
OffsetSet = Union[frozenset[int], SetVar]


# --------------------------------------------------------------------------
# annotated types


@dataclass(frozen=True, slots=True)
class Calc:
    """A calculated value: frame tower plus written offsets."""

    tower: Tower
    offs: OffsetSet = frozenset()

    def __str__(self) -> str:
        return f"c^{self.tower}" + _offs_suffix(self.offs)


@dataclass(frozen=True, slots=True)
class Uncalc:
    """An uncalculated value: opaque pointer to `size` bytes."""

    size: int
    offs: OffsetSet = frozenset()

    def __str__(self) -> str:
        return f"u^{self.size}" + _offs_suffix(self.offs)


@dataclass(frozen=True, slots=True)
class TypeVar:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


AnnotatedType = Union[Calc, Uncalc, TypeVar]


def offs_text(o: OffsetSet) -> str:
    """``{0,4}`` for a concrete set, ``?X`` for a variable."""
    if isinstance(o, SetVar):
        return str(o)
    return "{" + ",".join(str(k) for k in sorted(o)) + "}"


def _offs_suffix(o: OffsetSet) -> str:
    return "!" + offs_text(o) if o else ""  # the empty set prints nothing


def calc(*frames: int, offs: Iterable[int] = ()) -> Calc:
    return Calc(Finite(tuple(frames)), frozenset(offs))


def rep(step: int, offs: Iterable[int] = ()) -> Calc:
    return Calc(Rep(step), frozenset(offs))


def uncalc(size: int, offs: Iterable[int] = ()) -> Uncalc:
    return Uncalc(size, frozenset(offs))


C0 = calc(0)
U0 = uncalc(0)


# --------------------------------------------------------------------------
# frame operations and the access guard


def push_frame(t: AnnotatedType, n: int) -> Calc:
    """Prepend a new frame of ``n`` bytes; written offsets start empty."""
    if n <= 0:
        raise NonPositiveFrame(f"new frame must be positive, got {n}")
    if not isinstance(t, Calc) or not isinstance(t.tower, Finite):
        raise NotStackLike(f"cannot push a frame onto {t}")
    return Calc(Finite((n,) + t.tower.frames), frozenset())


def pop_frame(t: AnnotatedType, n: int) -> Calc:
    """Remove the current frame, which must be exactly ``n`` bytes.

    Finite towers lose their head and their written offsets; a repeating
    tower steps in place and keeps its offsets, since the same write
    pattern recurs at every increment along a string.
    """
    if not isinstance(t, Calc):
        raise NotStackLike(f"cannot pop a frame from {t}")
    if isinstance(t.tower, Rep):
        if n != t.tower.step:
            raise FrameMismatch(f"step {n} != string increment {t.tower.step}")
        return Calc(t.tower, t.offs)
    frames = t.tower.frames
    if frames[0] != n:
        raise FrameMismatch(f"pop of {n} does not match current frame {frames[0]}")
    if len(frames) == 1:
        raise FrameMismatch(f"no enclosing frame beneath {t}")
    return Calc(Finite(frames[1:]), frozenset())


# The machine faults on a word access off a word boundary.  The stack and
# every data blob start on one, so the pointers built from them stay on
# one while each pushed frame and each string step is a whole number of
# words, and a word access then needs only a whole-word offset.  A blob
# takes its bytes or its declared size, whichever is larger, rounded up
# to a word, so an array's bound never reaches the next blob.


def check_frame(n: int) -> None:
    if n % WORD:
        raise Misaligned(f"frame {n} is not a multiple of {WORD}")


def check_access(t: AnnotatedType, k: int, w: int = WORD, write: bool = False) -> AnnotatedType:
    """The guard on a ``w``-byte access at offset ``k`` through ``t``: inside
    the bound, after a write at ``k`` for a read, on a word boundary.  A
    write returns ``t`` with ``k`` marked written, a read ``t`` itself; the
    bound never grows."""
    if isinstance(t, TypeVar):
        raise ImmutableValue(f"cannot access through unresolved {t}")
    if isinstance(t, Uncalc):
        if t.size == 0:
            raise ImmutableValue("u^0 forbids memory access")
        bound = t.size
    else:
        bound = t.tower.step if isinstance(t.tower, Rep) else t.tower.frames[0]
    if not (0 <= k <= bound - w):
        raise OutOfBounds(f"offset {k} outside [0, {bound}-{w}]")
    offs = t.offs
    if isinstance(offs, SetVar):
        raise UnresolvedVariable(f"offset set {offs} is not concrete")
    if not write and k not in offs:
        raise ReadBeforeWrite(f"read at offset {k} precedes any write there")
    if w == WORD:
        if k % WORD:
            raise Misaligned(f"word offset {k} is not a multiple of {WORD}")
        if isinstance(t, Calc) and isinstance(t.tower, Rep) and t.tower.step % WORD:
            raise Misaligned(f"word access through string step {t.tower.step}, "
                             f"not a multiple of {WORD}")
    if not write or k in offs:
        return t
    if isinstance(t, Uncalc):
        return Uncalc(t.size, offs | {k})
    return Calc(t.tower, offs | {k})


# --------------------------------------------------------------------------
# unification

Subst = dict  # ("t", name) -> AnnotatedType, ("s", name) -> OffsetSet


def walk_type(t: AnnotatedType, s: Subst) -> AnnotatedType:
    while isinstance(t, TypeVar) and ("t", t.name) in s:
        t = s[("t", t.name)]
    return t


def walk_offs(o: OffsetSet, s: Subst) -> OffsetSet:
    while isinstance(o, SetVar) and ("s", o.name) in s:
        o = s[("s", o.name)]
    return o


def apply_subst(t: AnnotatedType, s: Subst) -> AnnotatedType:
    t = walk_type(t, s)
    if isinstance(t, TypeVar):
        return t
    o = walk_offs(t.offs, s)
    if isinstance(t, Uncalc):
        return Uncalc(t.size, o)
    return Calc(t.tower, o)


def unify(t1: AnnotatedType, t2: AnnotatedType, s: Subst | None = None) -> Subst:
    """Most general extension of ``s`` making ``t1`` and ``t2`` identical.

    The term language is non-recursive, so no occurs check is needed.
    Raises :class:`UnifyMismatch` when no unifier exists.
    """
    s = dict(s) if s else {}
    t1, t2 = walk_type(t1, s), walk_type(t2, s)
    if isinstance(t1, TypeVar):
        if not (isinstance(t2, TypeVar) and t2.name == t1.name):
            s[("t", t1.name)] = t2
        return s
    if isinstance(t2, TypeVar):
        s[("t", t2.name)] = t1
        return s
    if isinstance(t1, Calc) != isinstance(t2, Calc):
        raise UnifyMismatch(t1, t2)
    if isinstance(t1, Calc):
        if t1.tower != t2.tower:
            raise UnifyMismatch(t1, t2)
    elif t1.size != t2.size:
        raise UnifyMismatch(t1, t2)
    return _unify_offs(t1.offs, t2.offs, s, t1, t2)


def _unify_offs(o1: OffsetSet, o2: OffsetSet, s: Subst, t1, t2) -> Subst:
    o1, o2 = walk_offs(o1, s), walk_offs(o2, s)
    if isinstance(o1, SetVar):
        if not (isinstance(o2, SetVar) and o2.name == o1.name):
            s[("s", o1.name)] = o2
        return s
    if isinstance(o2, SetVar):
        s[("s", o2.name)] = o1
        return s
    if o1 != o2:
        raise UnifyMismatch(t1, t2)
    return s


# --------------------------------------------------------------------------
# bindings of registers and stack slots

Regs = tuple[AnnotatedType | None, ...]  # indexed by register, None if unbound
Pairs = tuple[tuple[int, AnnotatedType], ...]  # sorted by offset, one per offset

_UNBOUND: Regs = (None,) * len(REG_NAMES)


@dataclass(frozen=True, slots=True)
class Annotation:
    """Bindings of registers and stack slots to annotated types.

    The registers are a register file: a 32-tuple indexed by register
    number, holding ``None`` where a register is unbound.  The slots are
    sorted ``(offset, type)`` pairs, few because a frame has few slots.
    One register may be starred as the current stack-pointer holder; its
    type is then a calculated type with a finite frame tower.  Slot
    bindings are meaningful only for the current frame and only at
    offsets the starred type records as written."""

    star: int | None = None
    regs: Regs = _UNBOUND
    slots: Pairs = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def make(star: int | None = None,
             regs: dict[int, AnnotatedType] | None = None,
             slots: dict[int, AnnotatedType] | None = None) -> "Annotation":
        file = list(_UNBOUND)
        for r, t in (regs or {}).items():
            file[r] = t
        a = Annotation(star, tuple(file), tuple(sorted((slots or {}).items())))
        a.validate()
        return a

    def validate(self) -> None:
        if self.star is not None:
            t = self.reg(self.star)
            if not (isinstance(t, Calc) and isinstance(t.tower, Finite)):
                raise ValueError(f"starred register must hold a finite stack type, got {t}")
            if not isinstance(t.offs, SetVar):
                for k, _ in self.slots:
                    if k not in t.offs:
                        raise ValueError(f"slot ({k}) bound outside written offsets "
                                         f"{offs_text(t.offs)}")
        elif self.slots:
            raise ValueError("slot bindings require a starred register")

    # -- reads ---------------------------------------------------------------

    def reg(self, r: int) -> AnnotatedType | None:
        return self.regs[r]

    def slot(self, k: int) -> AnnotatedType | None:
        for i, t in self.slots:
            if i == k:
                return t
        return None

    def slot_map(self) -> dict[int, AnnotatedType]:
        return dict(self.slots)

    def star_type(self) -> Calc | None:
        return self.reg(self.star) if self.star is not None else None

    # -- functional updates ---------------------------------------------------
    # An update copies only the register file or the slot pairs it changes;
    # the other part and every type object are shared with the annotation
    # it came from.  An update that changes nothing returns the annotation
    # itself.

    def set_reg(self, r: int, t: AnnotatedType) -> "Annotation":
        regs = self.regs
        if regs[r] is t:
            return self
        return Annotation(self.star, regs[:r] + (t,) + regs[r + 1:], self.slots)

    def set_slot(self, k: int, t: AnnotatedType) -> "Annotation":
        if self.slot(k) is t:
            return self
        slots = self.slot_map()
        slots[k] = t
        return Annotation(self.star, self.regs, tuple(sorted(slots.items())))

    def with_slots(self, slots: Pairs = ()) -> "Annotation":
        """The same registers with ``slots``, sorted pairs such as another
        annotation's ``slots``."""
        return Annotation(self.star, self.regs, slots)

    def prune_slots(self, keep: frozenset[int]) -> "Annotation":
        return Annotation(self.star, self.regs,
                          tuple((k, t) for k, t in self.slots if k in keep))

    def substituted(self, s: Subst) -> "Annotation":
        return Annotation(
            self.star,
            tuple(None if t is None else apply_subst(t, s) for t in self.regs),
            tuple((k, apply_subst(t, s)) for k, t in self.slots),
        )

    def __str__(self) -> str:
        return serialize_annotation(self)


def unify_annotations(a: Annotation, b: Annotation, s: Subst | None = None) -> Subst:
    """Unifier making two annotations identical: same star, same bound
    locations, unifiable types at each.  Raises UnifyMismatch otherwise."""
    s = dict(s) if s else {}
    if a.star != b.star:
        raise UnifyMismatch(f"star {_star_str(a)}", f"star {_star_str(b)}")
    extra = [r for r, (ta, tb) in enumerate(zip(a.regs, b.regs)) if (ta is None) != (tb is None)]
    if extra:
        raise UnifyMismatch(f"registers {{{', '.join(reg_name(r) for r in extra)}}}",
                            "bound on one path only")
    for ta, tb in zip(a.regs, b.regs):
        if ta is not None:
            s = unify(ta, tb, s)
    asl, bsl = a.slot_map(), b.slot_map()
    if asl.keys() != bsl.keys():
        extra = asl.keys() ^ bsl.keys()
        raise UnifyMismatch(f"slots {sorted(extra)}", "bound on one path only")
    for k in asl:
        s = unify(asl[k], bsl[k], s)
    return s


def _star_str(a: Annotation) -> str:
    return reg_name(a.star) if a.star is not None else "none"


# --------------------------------------------------------------------------
# canonical text


def serialize_annotation(a: Annotation,
                         type_text: Callable[[AnnotatedType], str] = str) -> str:
    """Deterministic rendering; round-trips through parse_annotation.
    ``type_text`` renders one type; a caching renderer may stand in for
    ``str``."""
    parts = []
    for r, t in enumerate(a.regs):
        if t is None:
            continue
        star = "*" if r == a.star else ""
        parts.append(f"{reg_name(r)}{star}={type_text(t)}")
    for k, t in a.slots:
        parts.append(f"({k})={type_text(t)}")
    return ", ".join(parts)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# a type variable, or a tower or size with its optional offsets suffix:
# ``{}``, comma-separated numbers in braces, or an offset-set variable
_TYPE_RE = re.compile(
    r"""^(?:
        \?(?P<tvar>%(n)s)
      | (?: c\^\[(?P<frames>\d+(?:,\d+)*)\]
          | c\^rep\((?P<step>\d+)\)
          | u\^(?P<size>\d+)
        )(?P<offs>!(?:\{(?:\d+(?:,\d+)*)?\}|\?%(n)s))?
    )$""" % {"n": _NAME},
    re.VERBOSE,
)


def parse_type(text: str) -> AnnotatedType:
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed annotated type {text!r}")
    if m.group("tvar"):
        return TypeVar(m.group("tvar"))
    offs = _parse_offs(m.group("offs"))
    if m.group("size") is not None:
        return Uncalc(int(m.group("size")), offs)
    if m.group("step") is not None:
        return Calc(Rep(int(m.group("step"))), offs)
    return Calc(Finite(tuple(int(f) for f in m.group("frames").split(","))), offs)


def _parse_offs(suffix: str | None):
    """The offsets of a suffix ``_TYPE_RE`` matched: ``!?name``, or
    ``!{...}`` holding no numbers or comma-separated ones."""
    if not suffix:
        return frozenset()
    if suffix[1] == "?":
        return SetVar(suffix[2:])
    return frozenset(int(k) for k in suffix[2:-1].split(",") if k)


_BINDING_RE = re.compile(
    r"^(?:(?P<reg>%(n)s)(?P<star>\*)?|\((?P<slot>\d+)\))=(?P<type>.+)$" % {"n": _NAME}
)


def parse_annotation(text: str) -> Annotation:
    """Parse ``reg[*]=type, (n)=type, ...`` into an Annotation."""
    star = None
    regs: dict[int, AnnotatedType] = {}
    slots: dict[int, AnnotatedType] = {}
    text = text.strip()
    if text:
        for part in _split_bindings(text):
            m = _BINDING_RE.match(part.strip())
            if not m:
                raise ValueError(f"malformed binding {part!r}")
            t = parse_type(m.group("type"))
            if m.group("slot") is not None:
                k = int(m.group("slot"))
                if k in slots:
                    raise ValueError(f"slot ({k}) bound twice")
                slots[k] = t
            else:
                name = m.group("reg")
                if name not in REG_INDEX:
                    raise ValueError(f"unknown register {name!r}")
                r = REG_INDEX[name]
                if r in regs:
                    raise ValueError(f"register {reg_name(r)} bound twice")
                regs[r] = t
                if m.group("star"):
                    if star is not None:
                        raise ValueError("more than one starred register")
                    star = r
    return Annotation.make(star=star, regs=regs, slots=slots)


def _split_bindings(text: str) -> list[str]:
    # Commas separate bindings but also occur inside towers and offset sets;
    # split only at depth zero.
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts
