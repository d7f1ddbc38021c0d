from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from aliascert.annot import (
    U0,
    Calc,
    Finite,
    Rep,
    SetVar,
    TypeVar,
    Uncalc,
    UnifyMismatch,
    apply_subst,
    calc,
    unify,
)


def try_unify(t1, t2):
    """The unifier of ``t1`` and ``t2``, or None when they do not unify."""
    try:
        return unify(t1, t2)
    except UnifyMismatch:
        return None


def test_variable_binds_to_ground_type():
    t = calc(32, 0, offs=[24, 28])
    s = unify(TypeVar("x"), t)
    assert s == {("t", "x"): t}
    assert apply_subst(TypeVar("x"), s) == t


def test_identical_ground_terms_need_nothing():
    assert unify(U0, U0) == {}


def test_distinct_constructors_mismatch():
    with pytest.raises(UnifyMismatch):
        unify(calc(0), U0)


def test_offset_set_variable_binds():
    s = unify(Calc(Finite((8,)), SetVar("X")), calc(8, offs=[0, 4]))
    assert apply_subst(Calc(Finite((8,)), SetVar("X")), s) == calc(8, offs=[0, 4])


def test_towers_must_match_exactly():
    with pytest.raises(UnifyMismatch):
        unify(calc(32, 0), calc(32))
    with pytest.raises(UnifyMismatch):
        unify(Calc(Rep(1)), Calc(Rep(2)))


def test_substitution_threads_through_chains():
    s = unify(TypeVar("x"), TypeVar("y"))
    s = unify(TypeVar("y"), U0, s)
    assert apply_subst(TypeVar("x"), s) == U0


types = st.one_of(
    st.builds(Calc,
              st.one_of(st.lists(st.integers(0, 8), min_size=1, max_size=3)
                          .map(lambda f: Finite(tuple(f))),
                        st.integers(1, 4).map(Rep)),
              st.one_of(st.frozensets(st.integers(0, 6)),
                        st.sampled_from("XY").map(SetVar))),
    st.builds(Uncalc, st.integers(0, 8),
              st.frozensets(st.integers(0, 6))),
    st.sampled_from("xyz").map(TypeVar),
)


@given(types, types)
def test_unify_symmetric_and_idempotent(t1, t2):
    s12 = try_unify(t1, t2)
    s21 = try_unify(t2, t1)
    assert (s12 is None) == (s21 is None)
    if s12 is None:
        return
    a, b = apply_subst(t1, s12), apply_subst(t2, s12)
    assert a == b
    # applying the unifier again changes nothing
    assert apply_subst(a, s12) == a
    # the two orientations agree after substitution
    assert apply_subst(t1, s21) == apply_subst(t2, s21)
