"""Brute-force operator oracles and the exhaustive membership cross-check."""

import itertools
import random
from collections import Counter
from math import comb

import pytest

from crystal_poly import (
    CrystalOps,
    LinearForm,
    ZVector,
    crosscheck_membership,
    epsilon_star_forms,
    epsilon_star_oracle,
    generate_closure,
    membership,
    membership_family,
    random_reachable,
    reaches_origin,
    weight_graded_counts,
)
from crystal_poly import oracle
from crystal_poly.oracle import MAX_CANDIDATES, _candidate_matrix, _compile_matrix

from util import (
    DEFAULT_WORDS,
    GRID8,
    make_context,
    reference_candidate_matrix,
    reference_compile_matrix,
    reference_feasible,
    reference_reaches_origin,
)


# ----------------------------------------------------------------------------------
# Closure enumeration (hand-counted values)
# ----------------------------------------------------------------------------------


def test_limit_closure_levels_frozen():
    ctx = make_context("A1")
    closure, levels = generate_closure(CrystalOps(ctx, None), 2)
    assert [len(level) for level in levels] == [1, 3, 9]
    assert len(closure) == 13
    assert set(levels[1]) == {
        ZVector({1: 1}),
        ZVector({2: 1}),
        ZVector({3: 1}),
    }


def test_weight_graded_counts_frozen():
    ctx = make_context("A1")
    counts = weight_graded_counts(CrystalOps(ctx, None), 2)
    assert counts == {
        (0, 0, 0): 1,
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
        (2, 0, 0): 1,
        (0, 2, 0): 1,
        (0, 0, 2): 1,
        (1, 1, 0): 2,
        (1, 0, 1): 2,
        (0, 1, 1): 2,
    }


def test_fundamental_weight_closure_frozen():
    ctx = make_context("A1")
    closure, levels = generate_closure(CrystalOps(ctx, {1: 1}), 2)
    assert [len(level) for level in levels] == [1, 1, 2]
    assert len(closure) == 4
    assert levels[1] == [ZVector({2: 1})]
    assert set(levels[2]) == {ZVector({2: 1, 3: 1}), ZVector({2: 1, 4: 1})}


# ----------------------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------------------


def test_reaches_origin():
    ctx = make_context("A1")
    ops = CrystalOps(ctx, None)
    assert reaches_origin(ops, ZVector.ZERO)
    star = ZVector.from_list((1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 0, 1))
    assert reaches_origin(ops, star)
    assert not reaches_origin(ops, ZVector({4: 1}))  # isolated later slot
    assert not reaches_origin(ops, ZVector({1: -1}))


def test_closure_elements_reach_origin():
    ctx = make_context("C1")
    ops = CrystalOps(ctx, None)
    closure, _ = generate_closure(ops, 3)
    assert all(reaches_origin(ops, x) for x in closure)


def test_greedy_raising_matches_the_full_search():
    # every vector of entry sum <= 4 on 9 positions, on every grid word
    vectors = [ZVector(Counter(c)) for size in range(5)
               for c in itertools.combinations_with_replacement(range(1, 10), size)]
    assert len(vectors) == 715
    for fam, word in GRID8:
        ctx = make_context(fam, word)
        for lam in (None, {1: 1}, {1: 1, 2: 1}):
            ops = CrystalOps(ctx, lam)
            memo = {}
            for x in vectors:
                assert reaches_origin(ops, x) == reference_reaches_origin(ops, x, memo), (
                    fam, word, lam, x)


# ----------------------------------------------------------------------------------
# Starred string values
# ----------------------------------------------------------------------------------


def test_epsilon_star_oracle_frozen():
    ctx = make_context("A1")
    assert [epsilon_star_oracle(ctx, ZVector.ZERO, k) for k in ctx.colors()] == [0, 0, 0]
    x = ZVector.from_list([3, 3, 2, 3, 2, 1])
    assert [epsilon_star_oracle(ctx, x, k) for k in ctx.colors()] == [1, 3, 0]
    with pytest.raises(ValueError):
        epsilon_star_oracle(ctx, ZVector({1: -1}), 1)
    with pytest.raises(ValueError):
        epsilon_star_oracle(ctx, ZVector({4: 1}), 1)


@pytest.mark.parametrize("family", ["A1", "A2", "C1", "D2"])
def test_epsilon_star_forms_match_oracle_sample(family):
    ctx = make_context(family)
    ops = CrystalOps(ctx, None)
    rng = random.Random(4242)
    for _ in range(10):
        x = random_reachable(ops, rng, 5)
        for k in ctx.colors():
            assert epsilon_star_forms(ctx, x, k) == epsilon_star_oracle(ctx, x, k)


# ----------------------------------------------------------------------------------
# Random sampling and cross-module consistency
# ----------------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["A1", "A2", "C1", "D2"])
def test_random_reachable_vectors_satisfy_inequalities(family):
    ctx = make_context(family)
    ops = CrystalOps(ctx, None)
    rng = random.Random(99)
    xs = [random_reachable(ops, rng, 6) for _ in range(15)]
    support = max([ctx.n] + [x.max_pos() for x in xs])
    forms, converged = membership_family(ctx, None, support)
    assert converged
    for x in xs:
        ok, witness = membership(forms, x)
        assert ok, witness


# ----------------------------------------------------------------------------------
# Candidate generation and the exhaustive cross-check
# ----------------------------------------------------------------------------------


def test_sum_bounded_tuples_count():
    # with no rows to cut, the pruned sweep and the reference box both give
    # every vector of entry sum <= total, in the same order
    for support in range(7):
        for total in range(4):
            want = reference_candidate_matrix(support, total)
            rows = _candidate_matrix(support, total, matrix=_compile_matrix([], support))
            for got in (want, rows):
                assert got.shape == (comb(support + total, total), support)
                assert len({tuple(r) for r in got.tolist()}) == len(got)
                assert (got >= 0).all() and (got.sum(axis=1) <= total).all()
            assert rows.tolist() == want.tolist()
    assert len(reference_candidate_matrix(4, 2)) == 15
    assert len(_candidate_matrix(6, 2, matrix=_compile_matrix([], 6))) == 28


def _sweep_both(forms, support, total):
    """The pruned sweep's feasible set and the reference block sweep's, from
    one compiled matrix."""
    matrix = _compile_matrix(forms, support)
    rows = _candidate_matrix(support, total, matrix=matrix)
    coeffs, consts, _ = matrix
    assert rows.tolist() == sorted(rows.tolist())
    return set(map(tuple, rows.tolist())), reference_feasible(coeffs, consts, support, total)


def test_pruned_sweep_cuts_on_a_constant_row():
    # restricted to the support the row is the constant -1: nothing is feasible
    for support in range(4):
        coeffs, consts, starts = _compile_matrix([LinearForm(-1, {5: 1})], support)
        assert coeffs.shape == (1, support) and starts[:2].tolist() == [0, 1]
        got, want = _sweep_both([LinearForm(-1, {5: 1}), LinearForm(2, {1: -1})], support, 3)
        assert got == want == set()
    # a nonnegative constant row is dropped and cuts nothing
    got, want = _sweep_both([LinearForm(0, {5: -1})], 2, 2)
    assert got == want and len(got) == comb(4, 2)


def test_pruned_sweep_applies_a_last_column_row_at_the_end():
    # x3 <= 1 reads every column of a width-3 box
    form = LinearForm(1, {3: -1})
    coeffs, consts, starts = _compile_matrix([form], 3)
    assert starts.tolist() == [0, 0, 0, 0, 1]
    got, want = _sweep_both([form], 3, 3)
    assert got == want
    assert got == {v for v in itertools.product(range(4), repeat=3)
                   if sum(v) <= 3 and v[2] <= 1}


def test_pruned_sweep_merges_duplicate_rows():
    # both restrict to x2 - x1 on the support; the smaller constant wins
    forms = [LinearForm(2, {1: -1, 2: 1}), LinearForm(1, {1: -1, 2: 1, 7: 3}),
             LinearForm(0, {2: -1, 3: 1})]
    coeffs, consts, starts = _compile_matrix(forms, 3)
    assert coeffs.tolist() == [[-1, 1, 0], [0, -1, 1]] and consts.tolist() == [1, 0]
    assert starts.tolist() == [0, 0, 0, 1, 2]
    got, want = _sweep_both(forms, 3, 4)
    assert got == want
    assert got == {v for v in itertools.product(range(5), repeat=3)
                   if sum(v) <= 4 and v[0] <= v[1] + 1 and v[2] >= v[1]}


def test_pruned_sweep_equals_the_block_sweep(monkeypatch):
    sweep = oracle._candidate_matrix
    supports = []

    def checked(support, total, *, matrix):
        rows = sweep(support, total, matrix=matrix)
        coeffs, consts, _ = matrix
        assert set(map(tuple, rows.tolist())) == reference_feasible(coeffs, consts,
                                                                    support, total)
        supports.append(support)
        return rows

    monkeypatch.setattr(oracle, "_candidate_matrix", checked)
    for fam, word in GRID8:
        ctx = make_context(fam, word)
        for lam in (None, {1: 1}, {1: 1, 2: 1}):
            for depth in range(1, 5):
                assert crosscheck_membership(ctx, lam, depth)["matched"], (fam, word, lam)
    assert len(supports) == 8 * 3 * 4
    # a window below the closure's reach is grown to it; one above it is kept
    ctx = make_context("A2")
    small = crosscheck_membership(ctx, {1: 1}, 3, window=2)
    large = crosscheck_membership(ctx, {1: 1}, 3, window=14)
    assert small["matched"] and large["matched"]
    assert small["support_positions"] > 2 and large["support_positions"] == 14
    assert supports[-2:] == [small["support_positions"], 14]


def test_compile_matrix_keeps_the_strongest_constant_per_row():
    # both restrict to -x1 on the support; the larger constant is the weaker row
    weak = LinearForm(3, {1: -1, 5: 2})
    strong = LinearForm(1, {1: -1})
    for forms in ([weak, strong], [strong, weak]):
        coeffs, consts, _ = _compile_matrix(forms, 3)
        assert coeffs.tolist() == [[-1, 0, 0]]
        assert consts.tolist() == [1]


@pytest.mark.parametrize("family", sorted(DEFAULT_WORDS))
def test_compile_matrix_equals_the_row_by_row_reference(family):
    ctx = make_context(family)
    for lam in (None, {1: 1}):
        for margin in (1, 2):
            support = 4 * ctx.n  # the crosscheck workload's depth 4
            forms, converged = membership_family(ctx, lam, support, margin)
            assert converged
            got = _compile_matrix(forms, support)
            want = reference_compile_matrix(forms, support)
            assert len(want[0]) > 0
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert (a == b).all(), (lam, margin)
            # rows starts[j]:starts[j + 1] read exactly the first j columns
            coeffs, starts = got[0], got[2]
            reads = [max((i + 1 for i, c in enumerate(r) if c), default=0)
                     for r in coeffs.tolist()]
            assert starts.tolist() == [sum(r < j for r in reads) for j in range(support + 2)]


def test_crosscheck_membership_fundamental():
    ctx = make_context("A1")
    rep = crosscheck_membership(ctx, {1: 1}, 2)
    assert rep["matched"] is True
    assert rep["mismatches"] == []
    assert rep["lambda"] == {"1": 1}
    assert rep["iota_word"] == [2, 1, 3]
    assert rep["depth"] == 2
    assert rep["support_positions"] == 6
    assert rep["candidates"] == 28
    assert rep["feasible"] == rep["closure"] == 4
    assert rep["margin_periods"] == 1
    assert rep["window_sensitive"] is False
    assert rep["active_forms"] > 0


def test_crosscheck_membership_limit():
    ctx = make_context("A1")
    rep = crosscheck_membership(ctx, None, 2)
    assert rep["matched"] is True
    assert rep["lambda"] is None
    assert rep["closure"] == 13
    assert rep["feasible"] == 13


def test_crosscheck_refuses_too_many_candidates_before_generating(monkeypatch):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("membership_family called over the candidate limit")

    monkeypatch.setattr(oracle, "membership_family", unreachable)
    ctx = make_context("A1")
    with pytest.raises(RuntimeError) as err:
        crosscheck_membership(ctx, None, 7)
    msg = str(err.value)
    assert "1184040 candidates" in msg and "support 21" in msg and "depth 7" in msg
    assert str(MAX_CANDIDATES) in msg
