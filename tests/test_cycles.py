"""Cycle-letter arithmetic and switching sets for rotated cycles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from switchdeck.canon import is_isomorphic
from switchdeck.cycles import (
    CycleOrientation,
    Rotation,
    dist_set,
    find_W,
    verify_w_size_reconstruction,
    w_set,
)
from switchdeck.digraph import VertexSet, apply_perm
from switchdeck.errors import HypothesisUnmet, OutOfRange
from switchdeck.spaces import CycleSpace
from switchdeck.switching import switch_set


@st.composite
def cycle_orients(draw, min_n=3, max_n=8, digons=True):
    n = draw(st.integers(min_n, max_n))
    alphabet = "FBD" if digons else "FB"
    text = draw(st.text(alphabet, min_size=n, max_size=n))
    return CycleOrientation.from_letters(text)


def class_int(co: CycleOrientation) -> int:
    """The orbit-minimal string of co's class in its cycle space."""
    space = CycleSpace(co.n, digons=co.has_digons)
    x = np.array([space.from_letters(co.dirs)], dtype=np.uint64)
    return int(space.orbit_min_array(x)[0])


def all_solutions(co: CycleOrientation, rot: Rotation) -> list[int]:
    g = co.to_digraph()
    target = apply_perm(g, rot.as_permutation())
    return [w for w in range(1 << co.n)
            if switch_set(g, VertexSet(co.n, w)) == target]


def test_letter_round_trip():
    co = CycleOrientation.from_letters("FBDFB")
    assert co.letters() == "FBDFB"
    assert co.n == 5 and co.has_digons
    assert not CycleOrientation.from_letters("FFB").has_digons
    with pytest.raises(OutOfRange):
        CycleOrientation.from_letters("FB")


def test_unknown_letter_is_named_with_the_alphabet():
    with pytest.raises(HypothesisUnmet, match="'X' is not one of F, B, D"):
        CycleOrientation.from_letters("FXB")


def test_rotation_helpers():
    rot = Rotation(6, 4)
    assert rot.order == 3
    assert Rotation(6, 6).is_trivial()
    assert Rotation(5, 2).as_permutation().image == (2, 3, 4, 0, 1)


@given(cycle_orients(max_n=7), st.data())
def test_find_W_agrees_with_subset_scan(co, data):
    r = data.draw(st.integers(0, co.n - 1))
    rot = Rotation(co.n, r)
    small = [w for w in all_solutions(co, rot) if 2 * w.bit_count() < co.n]
    got = find_W(co, rot)
    if len(small) == 1:
        assert got is not None and got.bits == small[0]
        if len(got) >= 2:
            members, n = got.members(), co.n
            expect = {min(abs(a - b), n - abs(a - b))
                      for i, a in enumerate(members) for b in members[i + 1:]}
            assert dist_set(co, rot) == frozenset(expect)
    else:
        assert got is None
        with pytest.raises(HypothesisUnmet, match="no unique small switching set"):
            w_set(co, rot)


def test_one_defect_cycle_has_interval_w_set():
    # a single backward edge travels under rotation; W is the swept interval
    co = CycleOrientation.from_letters("B" + "F" * 14)
    assert w_set(co, Rotation(15, 2)).members() == (1, 2)
    assert dist_set(co, Rotation(15, 2)) == frozenset({1})
    assert w_set(co, Rotation(15, 5)).members() == (1, 2, 3, 4, 5)


def test_alternating_cycle_has_no_small_set():
    co = CycleOrientation.from_letters("FBFB")
    assert find_W(co, Rotation(4, 1)) is None
    with pytest.raises(HypothesisUnmet, match="no unique small switching set"):
        w_set(co, Rotation(4, 1))


def test_all_digon_cycle_stops_at_two_small_solutions():
    # every vertex set solves it (2^30 of them); the second small one decides
    co = CycleOrientation.from_letters("D" * 30)
    assert find_W(co, Rotation(30, 1)) is None


def test_rotation_of_another_order_is_rejected():
    co = CycleOrientation.from_letters("BFFFFFF")
    with pytest.raises(HypothesisUnmet, match="permutation on 5 vertices, digraph on 7"):
        find_W(co, Rotation(5, 2))
    with pytest.raises(HypothesisUnmet, match="permutation on 5 vertices, digraph on 7"):
        verify_w_size_reconstruction(co, Rotation(5, 2))


def test_w_size_reconstruction_from_cards():
    co = CycleOrientation.from_letters("B" + "F" * 14)
    out = verify_w_size_reconstruction(co, Rotation(15, 2))
    assert out["holds"] and out["w_size"] == 2 and out["reconstructed"] == 2
    out = verify_w_size_reconstruction(co, Rotation(15, 3))
    assert out["holds"] and out["w_size"] == 3


def test_w_size_reconstruction_guards():
    co = CycleOrientation.from_letters("B" + "F" * 14)
    with pytest.raises(HypothesisUnmet, match="nontrivial rotation"):
        verify_w_size_reconstruction(co, Rotation(15, 0))
    with pytest.raises(HypothesisUnmet, match="oriented cycle"):
        verify_w_size_reconstruction(
            CycleOrientation.from_letters("D" + "F" * 14), Rotation(15, 2))
    with pytest.raises(HypothesisUnmet, match=r"n=12, \|W\|=2"):  # n = 2|W| + 8 is one short
        verify_w_size_reconstruction(
            CycleOrientation.from_letters("B" + "F" * 11), Rotation(12, 2))
    with pytest.raises(HypothesisUnmet, match="no unique small switching set"):
        verify_w_size_reconstruction(
            CycleOrientation.from_letters("FBFB" * 4), Rotation(16, 1))


@given(st.data())
def test_class_int_separates_isomorphism_classes(data):
    a = data.draw(cycle_orients(max_n=7))
    b = data.draw(cycle_orients(min_n=a.n, max_n=a.n))
    same = is_isomorphic(a.to_digraph(), b.to_digraph())
    assert (class_int(a) == class_int(b)) == same
