"""Cartan data, folded color patterns, adapted words, and shift tables."""

import pytest

from crystal_poly import Context
from crystal_poly.cartan import (
    cartan_matrix,
    dual_family,
    fold_color,
    fold_period,
    p_matrix,
    special_colors,
    validate_family,
    wall_color,
    weight_from_config,
)

from util import GRID8, make_context


# ----------------------------------------------------------------------------------
# Families and Cartan matrices
# ----------------------------------------------------------------------------------


def test_cartan_matrices_rank_small():
    assert cartan_matrix("A1", 2) == ((2, -2), (-2, 2))
    assert cartan_matrix("A1", 3) == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert cartan_matrix("C1", 3) == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    assert cartan_matrix("A2", 3) == ((2, -1, 0), (-2, 2, -1), (0, -2, 2))
    assert cartan_matrix("D2", 3) == ((2, -2, 0), (-1, 2, -1), (0, -2, 2))


def test_cartan_matrices_rank_four():
    assert cartan_matrix("A1", 4) == (
        (2, -1, 0, -1),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (-1, 0, -1, 2),
    )
    assert cartan_matrix("C1", 4) == (
        (2, -1, 0, 0),
        (-2, 2, -1, 0),
        (0, -1, 2, -2),
        (0, 0, -1, 2),
    )
    assert cartan_matrix("A2", 4) == (
        (2, -1, 0, 0),
        (-2, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -2, 2),
    )
    assert cartan_matrix("D2", 4) == (
        (2, -2, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -2, 2),
    )


def test_twisted_pair_transpose():
    # The two twisted-D style matrices are mutually transposed at every rank.
    for n in (3, 4, 5):
        c = cartan_matrix("C1", n)
        d = cartan_matrix("D2", n)
        assert d == tuple(zip(*c))


def test_validate_family_errors():
    with pytest.raises(ValueError):
        validate_family("B1", 3)
    with pytest.raises(ValueError):
        validate_family("A1", 1)
    for fam in ("C1", "A2", "D2"):
        with pytest.raises(ValueError):
            validate_family(fam, 2)
    validate_family("A1", 2)
    validate_family("C1", 3)


def test_dual_family_involution():
    assert dual_family("A1") == "A1"
    assert dual_family("A2") == "A2"
    assert dual_family("C1") == "D2"
    assert dual_family("D2") == "C1"
    for fam in ("A1", "C1", "A2", "D2"):
        assert dual_family(dual_family(fam)) == fam


# ----------------------------------------------------------------------------------
# Folded color patterns
# ----------------------------------------------------------------------------------


def test_fold_periods():
    assert fold_period("A1", 3) == 3
    assert fold_period("C1", 3) == 4
    assert fold_period("A2", 3) == 5
    assert fold_period("D2", 3) == 6


def test_fold_patterns_one_period():
    assert [fold_color("A1", 3, t) for t in range(1, 4)] == [1, 2, 3]
    assert [fold_color("C1", 3, t) for t in range(1, 5)] == [1, 2, 3, 2]
    assert [fold_color("A2", 3, t) for t in range(1, 6)] == [1, 2, 3, 2, 1]
    assert [fold_color("D2", 3, t) for t in range(1, 7)] == [1, 2, 3, 3, 2, 1]


def test_fold_periodicity_all_integers():
    for fam in ("A1", "C1", "A2", "D2"):
        period = fold_period(fam, 3)
        for t in range(-7, 8):
            assert fold_color(fam, 3, t) == fold_color(fam, 3, t + period)


def test_wall_band_pattern():
    assert [wall_color(3, t) for t in range(1, 5)] == [1, 2, 3, 2]
    for t in range(1, 10):
        assert wall_color(3, t) == wall_color(3, t + 4)


def test_special_colors():
    assert special_colors("A1", 3) == frozenset()
    assert special_colors("C1", 3) == frozenset()
    assert special_colors("A2", 3) == frozenset({1})
    assert special_colors("D2", 3) == frozenset({1, 3})
    # contexts expose the specials of their machinery, not their own family
    assert make_context("A1").specials == frozenset()
    assert make_context("A2").specials == frozenset({1})
    assert make_context("C1").specials == frozenset({1, 3})
    assert make_context("D2").specials == frozenset()


# ----------------------------------------------------------------------------------
# Adapted words and the order matrix
# ----------------------------------------------------------------------------------


def test_every_permutation_builds_a_context():
    import itertools

    # every coupled pair of a permutation alternates, so no adaptedness
    # check can refuse one
    for fam in ("A1", "C1", "A2", "D2"):
        for n in range(2 if fam == "A1" else 3, 6):
            for word in itertools.permutations(range(1, n + 1)):
                assert Context(fam, n, word).word == word


def test_p_matrix_frozen():
    ctx = make_context("A1")  # word 2,1,3
    assert ctx.p == {
        (2, 1): 1,
        (1, 2): 0,
        (2, 3): 1,
        (3, 2): 0,
        (1, 3): 1,
        (3, 1): 0,
    }
    ctx2 = make_context("A2")  # word 2,1,3; colors 1,3 are uncoupled here
    assert ctx2.p == {(2, 1): 1, (1, 2): 0, (2, 3): 1, (3, 2): 0}
    assert (1, 3) not in ctx2.p
    assert p_matrix(cartan_matrix("A1", 3), (1, 2, 3)) == {
        (1, 2): 1,
        (2, 1): 0,
        (2, 3): 1,
        (3, 2): 0,
        (1, 3): 1,
        (3, 1): 0,
    }


# ----------------------------------------------------------------------------------
# Context position arithmetic and shift tables
# ----------------------------------------------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError):
        Context("A1", 3, (1, 2))  # not a permutation of 1..3
    with pytest.raises(ValueError):
        Context("A1", 3, (1, 2, 2))
    with pytest.raises(ValueError):
        Context("X9", 3, (1, 2, 3))


def test_position_round_trip():
    for fam in ("A1", "A2", "C1", "D2"):
        ctx = make_context(fam)
        for s in range(1, 5):
            for k in ctx.colors():
                pos = ctx.pos_of(s, k)
                assert ctx.sk_of(pos) == (s, k)
                assert ctx.color_of(pos) == k
                assert ctx.occurrence_of(pos) == s
        assert [ctx.color_of(p) for p in range(1, 4)] == list(ctx.word)


def test_pairing_lookup():
    ctx = make_context("A2")
    assert ctx.pairing(1, 2) == -1
    assert ctx.pairing(2, 1) == -2
    assert ctx.pairing(1, 3) == 0
    assert ctx.pairing(2, 2) == 2


def test_shift_tables_frozen():
    ctx = make_context("A1")  # word 2,1,3
    assert [ctx.shift(1, t) for t in range(-1, 4)] == [1, 0, 0, 1, 1]
    assert [ctx.shift(2, t) for t in range(-1, 5)] == [1, 0, 0, 0, 0, 1]
    assert [ctx.shift(3, t) for t in range(1, 6)] == [1, 1, 0, 1, 2]
    ctx2 = make_context("A2")  # word 2,1,3
    assert [ctx2.wall_shift(1, t) for t in range(1, 5)] == [0, 1, 1, 2]
    assert [ctx2.shift(2, t) for t in range(-1, 5)] == [1, 0, 0, 0, 0, 1]
    assert [ctx2.shift(3, t) for t in range(1, 6)] == [1, 1, 0, 1, 1]


def test_shift_anchor_and_monotone_steps():
    for fam in ("A1", "A2", "C1", "D2"):
        ctx = make_context(fam)
        for k in ctx.colors():
            assert ctx.shift(k, k) == 0
            vals = [ctx.shift(k, t) for t in range(k - 6, k + 7)]
            for a, b in zip(vals, vals[1:]):
                assert abs(a - b) <= 1  # each pattern step adds 0 or 1


def test_wall_shift_below_ground_raises():
    ctx = make_context("A2")
    with pytest.raises(ValueError):
        ctx.wall_shift(2, 1)


def test_shift_tables_equal_their_definition():
    for fam, word in GRID8:
        ctx = make_context(fam, word)
        p, fold, wall = ctx.p, ctx.fold, ctx.wall_fold
        P, W = ctx.fold_period, 2 * ctx.n - 2
        for k in ctx.colors():
            for t in range(k - 3 * P, k + 3 * P + 1):
                assert fold(t) == fold_color(ctx.machinery, ctx.n, t), (fam, word, t)
                if t >= k:
                    want = sum(p.get((fold(u), fold(u - 1)), 0) for u in range(k + 1, t + 1))
                else:
                    want = sum(p.get((fold(u), fold(u + 1)), 0) for u in range(t, k))
                assert ctx.shift(k, t) == want, (fam, word, k, t)
            for t in range(k, k + 3 * W + 1):
                want = sum(p.get((wall(u), wall(u - 1)), 0) for u in range(k + 1, t + 1))
                assert ctx.wall_shift(k, t) == want, (fam, word, k, t)


def test_wall_slots_equal_band_by_band_generation():
    for fam, word in GRID8:
        ctx = make_context(fam, word)
        for charge in ctx.specials:
            slots = []
            for band in range(charge, charge + 3 * (2 * ctx.n - 2)):
                color = wall_color(ctx.n, band)
                if color in ctx.specials:
                    slots += [(band, color, 0), (band, color, 1)]
                else:
                    slots.append((band, color, None))
            assert [ctx.wall_slot(charge, i) for i in range(len(slots))] == slots
        for k in set(ctx.colors()) - ctx.specials:
            with pytest.raises(ValueError):
                ctx.wall_slot(k, 0)


# ----------------------------------------------------------------------------------
# Config helpers
# ----------------------------------------------------------------------------------


def test_from_config():
    ctx = Context.from_config({"family": "C1", "n": 3, "iota_word": [1, 2, 3]})
    assert (ctx.family, ctx.n, ctx.word) == ("C1", 3, (1, 2, 3))


def test_weight_from_config():
    assert weight_from_config({}) == {}
    assert weight_from_config({"lambda": {"1": 2, "2": 0}}) == {1: 2}
    assert weight_from_config({"lambda": {3: 1}}) == {3: 1}
    with pytest.raises(ValueError):
        weight_from_config({"lambda": {"1": -1}})
