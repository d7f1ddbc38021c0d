"""Bindings of registers and stack slots to annotated types.

The registers are a register file: a 32-tuple indexed by register number,
holding ``None`` where a register is unbound.  The slots are sorted
``(offset, type)`` pairs, few because a frame has few slots.  One
register may be starred as the current stack-pointer holder; its type is
then a calculated type with a finite frame tower.  Slot bindings are
meaningful only for the current frame and only at offsets the starred
type records as written.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annot import (
    AnnotatedType,
    Calc,
    Finite,
    SetVar,
    Subst,
    UnifyMismatch,
    apply_subst,
    offs_text,
    unify,
)
from .isa import REG_NAMES, reg_name


Regs = tuple[AnnotatedType | None, ...]  # indexed by register, None if unbound
Pairs = tuple[tuple[int, AnnotatedType], ...]  # sorted by offset, one per offset

_UNBOUND: Regs = (None,) * len(REG_NAMES)


@dataclass(frozen=True, slots=True)
class Annotation:
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
        from .frontend import serialize_annotation

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
