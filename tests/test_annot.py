from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, strategies as st

from aliascert.annot import (
    C0,
    U0,
    Calc,
    Finite,
    FrameMismatch,
    ImmutableValue,
    Misaligned,
    NonPositiveFrame,
    NotStackLike,
    OutOfBounds,
    ReadBeforeWrite,
    Rep,
    TypeVar,
    Uncalc,
    calc,
    check_access,
    check_frame,
    pop_frame,
    push_frame,
    rep,
    uncalc,
)


# -- push_frame -------------------------------------------------------------

def test_push_onto_frame_with_writes_resets_offsets():
    t = calc(48, offs=[0, 4, 8])
    assert push_frame(t, 32) == calc(32, 48)


def test_push_onto_empty_frame():
    assert push_frame(calc(0), 32) == calc(32, 0)


def test_push_zero_frame_rejected():
    with pytest.raises(NonPositiveFrame):
        push_frame(calc(0), 0)


def test_push_needs_finite_stack_type():
    with pytest.raises(NotStackLike):
        push_frame(rep(1), 8)
    with pytest.raises(NotStackLike):
        push_frame(uncalc(8), 8)
    with pytest.raises(NotStackLike):
        push_frame(TypeVar("x"), 8)


# -- pop_frame --------------------------------------------------------------

def test_pop_restores_enclosing_frame():
    assert pop_frame(calc(32, 0, offs=[16, 24, 28]), 32) == calc(0)


def test_pop_string_step_keeps_offsets():
    assert pop_frame(rep(1, offs=[0]), 1) == rep(1, offs=[0])


def test_pop_wrong_size_rejected():
    with pytest.raises(FrameMismatch):
        pop_frame(calc(32, 0), 16)
    with pytest.raises(FrameMismatch):
        pop_frame(rep(2), 1)


def test_pop_sole_frame_rejected():
    with pytest.raises(FrameMismatch):
        pop_frame(calc(32), 32)


# -- check_access ------------------------------------------------------------

def test_write_within_frame():
    assert check_access(calc(32, 0), 28, 4, write=True) == calc(32, 0, offs=[28])


def test_write_byte_to_unit_array():
    assert check_access(uncalc(1), 0, 1, write=True) == uncalc(1, offs=[0])


def test_write_to_empty_frame_rejected():
    with pytest.raises(OutOfBounds):
        check_access(calc(0), 0, 4, write=True)


def test_write_to_u0_rejected():
    with pytest.raises(ImmutableValue):
        check_access(U0, 0, 1, write=True)
    with pytest.raises(ImmutableValue):
        check_access(TypeVar("x"), 0, 4, write=True)


def test_read_after_write_ok():
    t = calc(32, 0, offs=[16, 24, 28])
    assert check_access(t, 16, 4) is t


def test_read_before_write_rejected():
    with pytest.raises(ReadBeforeWrite):
        check_access(uncalc(8, offs=[0]), 4, 4)


def test_read_out_of_bounds_rejected():
    with pytest.raises(OutOfBounds):
        check_access(calc(32, 0, offs=[16]), 40, 4)


# -- algebraic laws ----------------------------------------------------------

towers = st.one_of(
    st.lists(st.integers(0, 64).map(lambda n: n * 4), min_size=1, max_size=4)
      .map(lambda fs: Finite(tuple(fs))),
    st.integers(1, 16).map(Rep),
)
ground_types = st.one_of(
    st.builds(Calc, towers, st.frozensets(st.integers(0, 60))),
    st.builds(Uncalc, st.integers(0, 64), st.frozensets(st.integers(0, 60))),
)


@given(ground_types, st.integers(1, 64))
def test_pop_undoes_push_modulo_offsets(t, n):
    try:
        pushed = push_frame(t, n)
    except NotStackLike:
        return
    popped = pop_frame(pushed, n)
    assert popped == Calc(t.tower, frozenset())


@given(ground_types, st.integers(0, 70), st.sampled_from([1, 4]))
def test_write_never_grows_bound_and_permits_readback(t, k, w):
    try:
        out = check_access(t, k, w, write=True)
    except (OutOfBounds, ImmutableValue, Misaligned):
        return
    if isinstance(t, Uncalc):
        assert out.size == t.size
    else:
        assert out.tower == t.tower
    assert check_access(out, k, w) is out


def test_bound_matches_bruteforce_enumeration():
    # the admissible write offsets are exactly [0, bound - w], whole words
    # only for a word access, and none through a string step that is not
    # a whole number of words
    rng = random.Random(0)
    for _ in range(200):
        bound = rng.randrange(0, 40)
        t = rng.choice([
            calc(bound), rep(bound) if bound >= 1 else calc(bound), uncalc(bound)])
        w = rng.choice([1, 4])
        admitted = set()
        for k in range(0, bound + 5):
            try:
                check_access(t, k, w, write=True)
                admitted.add(k)
            except (OutOfBounds, ImmutableValue, Misaligned):
                pass
        if isinstance(t, Uncalc) and t.size == 0:
            assert admitted == set()
        elif w == 4 and isinstance(t, Calc) and isinstance(t.tower, Rep) and bound % 4:
            assert admitted == set()
        else:
            assert admitted == set(range(0, max(bound - w, -1) + 1, w))


def test_word_access_stays_on_word_boundaries():
    # every base starts word-aligned: a word offset, a pushed frame and a
    # string's step must each be whole words; a byte access goes anywhere
    # inside the bound
    for t in (calc(8, 0), uncalc(8), rep(4), rep(3)):
        check_access(t, 2, 1, write=True)
    for t, bound in ((calc(8, 0), 8), (uncalc(8), 8), (rep(4), 4), (rep(8), 8)):
        admitted = set()
        for k in range(8):
            try:
                check_access(t, k, write=True)
                admitted.add(k)
            except OutOfBounds:
                pass
            except Misaligned as e:
                assert str(e) == f"word offset {k} is not a multiple of 4"
        assert admitted == set(range(0, bound - 3, 4))
    with pytest.raises(Misaligned, match="^word offset 2 is not a multiple of 4$"):
        check_access(calc(8, 0), 2, write=True)
    with pytest.raises(Misaligned, match="^word access through string step 6, not a multiple"):
        check_access(rep(6), 0, write=True)
    check_frame(8)
    with pytest.raises(Misaligned, match="^frame 7 is not a multiple of 4$"):
        check_frame(7)


def test_c0_and_u0_are_accessless():
    with pytest.raises(OutOfBounds):
        check_access(C0, 0, 1, write=True)
    with pytest.raises(ImmutableValue):
        check_access(U0, 0, 1)


def test_guard_errors_pass_through_a_context_manager():
    # a generator-based context manager sets __traceback__ on the exception
    # that leaves its block, so the guard's errors must accept that
    @contextlib.contextmanager
    def block():
        yield

    with pytest.raises(OutOfBounds, match=r"^offset 0 outside \[0, 0-4\]$"):
        with block():
            check_access(calc(0), 0)
    with pytest.raises(ReadBeforeWrite, match="^read at offset 0 precedes any write there$"):
        with block():
            check_access(uncalc(8), 0)
