"""Annotated types for registers and stack slots.

A value description is either *calculated* (``c``) -- it may be recomputed,
and carries a tower of nested frame sizes or a repeating step -- or
*uncalculated* (``u``) -- an opaque pointer of fixed byte size that must
never be recomputed.  Both carry the set of byte offsets already written
through the value when it was used as a base address.  Type variables and
offset-set variables stand in for unknown types/sets and are resolved by
first-order unification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

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


@dataclass(frozen=True)
class OutOfBounds(AnnotError):
    offset: int
    bound: int
    width: int = WORD

    def __str__(self) -> str:
        return f"offset {self.offset} outside [0, {self.bound}-{self.width}]"


@dataclass(frozen=True)
class ReadBeforeWrite(AnnotError):
    offset: int

    def __str__(self) -> str:
        return f"read at offset {self.offset} precedes any write there"


class UnifyMismatch(AnnotError):
    def __init__(self, t1, t2):
        super().__init__(f"cannot unify {t1} with {t2}")
        self.t1 = t1
        self.t2 = t2


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
# frame and offset operations


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


def _bound_of(t: AnnotatedType) -> int:
    if isinstance(t, TypeVar):
        raise ImmutableValue(f"cannot access through unresolved {t}")
    if isinstance(t, Uncalc):
        if t.size == 0:
            raise ImmutableValue("u^0 forbids memory access")
        return t.size
    return t.tower.step if isinstance(t.tower, Rep) else t.tower.frames[0]


def record_write(t: AnnotatedType, k: int, w: int = WORD) -> AnnotatedType:
    """Mark offset ``k`` written through ``t``; the bound never grows."""
    bound = _bound_of(t)
    if not (0 <= k <= bound - w):
        raise OutOfBounds(k, bound, w)
    if isinstance(t.offs, SetVar):
        raise UnresolvedVariable(f"offset set {t.offs} is not concrete")
    if k in t.offs:
        return t
    new = t.offs | {k}
    if isinstance(t, Uncalc):
        return Uncalc(t.size, new)
    return Calc(t.tower, new)


def check_read(t: AnnotatedType, k: int, w: int = WORD) -> None:
    """A read at ``k`` must sit inside the bound and follow a write there."""
    bound = _bound_of(t)
    if not (0 <= k <= bound - w):
        raise OutOfBounds(k, bound, w)
    if isinstance(t.offs, SetVar):
        raise UnresolvedVariable(f"offset set {t.offs} is not concrete")
    if k not in t.offs:
        raise ReadBeforeWrite(k)


# The machine faults on a word access off a word boundary.  The stack and
# every data blob start on one, so the pointers built from them stay on
# one while each pushed frame and each string step is a whole number of
# words, and a word access then needs only a whole-word offset.


def check_frame(n: int) -> None:
    if n % WORD:
        raise Misaligned(f"frame {n} is not a multiple of {WORD}")


def check_aligned(t: AnnotatedType, k: int, w: int = WORD) -> None:
    """A ``w``-byte access at ``k`` through ``t`` stays on a word boundary."""
    if w == WORD and k % WORD:
        raise Misaligned(f"word offset {k} is not a multiple of {WORD}")
    if w == WORD and isinstance(t, Calc) and isinstance(t.tower, Rep) and t.tower.step % WORD:
        raise Misaligned(f"word access through string step {t.tower.step}, "
                         f"not a multiple of {WORD}")


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
