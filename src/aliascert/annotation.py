"""Bindings of registers and stack slots to annotated types.

One register may be starred as the current stack-pointer holder; its type
is then a calculated type with a finite frame tower.  Slot bindings are
meaningful only for the current frame and only at offsets the starred
type records as written.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .annot import (
    AnnotatedType,
    Calc,
    Finite,
    Offsets,
    Subst,
    UnifyMismatch,
    apply_subst,
    unify,
)
from .isa import reg_name


Pairs = tuple[tuple[int, AnnotatedType], ...]  # sorted by index, one per index


def _first(pair: tuple[int, AnnotatedType]) -> int:
    return pair[0]


def _put(pairs: Pairs, k: int, t: AnnotatedType) -> Pairs:
    """``pairs`` with ``k`` bound to ``t``: the one pair is replaced or
    inserted in order, and every other pair object is shared.  Binding
    ``k`` to the object it already holds returns ``pairs`` itself."""
    i = bisect_left(pairs, k, key=_first)
    if i < len(pairs) and pairs[i][0] == k:
        if pairs[i][1] is t:
            return pairs
        return pairs[:i] + ((k, t),) + pairs[i + 1:]
    return pairs[:i] + ((k, t),) + pairs[i:]


@dataclass(frozen=True, slots=True)
class Annotation:
    star: int | None = None
    regs: Pairs = ()
    slots: Pairs = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def make(star: int | None = None,
             regs: dict[int, AnnotatedType] | None = None,
             slots: dict[int, AnnotatedType] | None = None) -> "Annotation":
        a = Annotation(
            star=star,
            regs=tuple(sorted((regs or {}).items())),
            slots=tuple(sorted((slots or {}).items())),
        )
        a.validate()
        return a

    def validate(self) -> None:
        if self.star is not None:
            t = self.reg(self.star)
            if not (isinstance(t, Calc) and isinstance(t.tower, Finite)):
                raise ValueError(f"starred register must hold a finite stack type, got {t}")
            if isinstance(t.offs, Offsets):
                for k, _ in self.slots:
                    if k not in t.offs.members:
                        raise ValueError(f"slot ({k}) bound outside written offsets {t.offs}")
        elif self.slots:
            raise ValueError("slot bindings require a starred register")

    # -- reads ---------------------------------------------------------------

    def reg(self, r: int) -> AnnotatedType | None:
        for i, t in self.regs:
            if i == r:
                return t
        return None

    def slot(self, k: int) -> AnnotatedType | None:
        for i, t in self.slots:
            if i == k:
                return t
        return None

    def reg_map(self) -> dict[int, AnnotatedType]:
        return dict(self.regs)

    def slot_map(self) -> dict[int, AnnotatedType]:
        return dict(self.slots)

    def star_type(self) -> Calc | None:
        return self.reg(self.star) if self.star is not None else None

    # -- functional updates ---------------------------------------------------
    # An update copies the tuple it changes and shares every other pair, so
    # the annotations along a path hold one new pair per step; an update
    # that changes nothing returns the annotation itself.

    def set_reg(self, r: int, t: AnnotatedType) -> "Annotation":
        regs = _put(self.regs, r, t)
        return self if regs is self.regs else Annotation(self.star, regs, self.slots)

    def set_slot(self, k: int, t: AnnotatedType) -> "Annotation":
        slots = _put(self.slots, k, t)
        return self if slots is self.slots else Annotation(self.star, self.regs, slots)

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
            tuple((r, apply_subst(t, s)) for r, t in self.regs),
            tuple((k, apply_subst(t, s)) for k, t in self.slots),
        )

    def __str__(self) -> str:
        from .frontend import serialize_annotation

        return serialize_annotation(self)


def unify_annotations(a: Annotation, b: Annotation, s: Subst | None = None) -> Subst:
    """Unifier making two annotations identical: same star, same bound
    locations, unifiable types at each.  Raises UnifyMismatch otherwise."""
    s = dict(s) if s else {}
    if a.star != b.star:
        raise UnifyMismatch(f"star {_star_str(a)}", f"star {_star_str(b)}")
    am, bm = a.reg_map(), b.reg_map()
    if am.keys() != bm.keys():
        extra = am.keys() ^ bm.keys()
        raise UnifyMismatch(f"registers {{{', '.join(reg_name(r) for r in sorted(extra))}}}",
                            "bound on one path only")
    for r in am:
        s = unify(am[r], bm[r], s)
    asl, bsl = a.slot_map(), b.slot_map()
    if asl.keys() != bsl.keys():
        extra = asl.keys() ^ bsl.keys()
        raise UnifyMismatch(f"slots {sorted(extra)}", "bound on one path only")
    for k in asl:
        s = unify(asl[k], bsl[k], s)
    return s


def _star_str(a: Annotation) -> str:
    return reg_name(a.star) if a.star is not None else "none"
