"""Brute-force operator oracles and the exhaustive membership cross-check."""

import itertools
import random
import sys
import time
from array import array
from collections import Counter
from math import comb

import pytest

from crystal_poly import (
    Context,
    CrystalOps,
    LinearForm,
    ZVector,
    crosscheck_membership,
    epsilon_star_oracle,
    generate_closure,
    membership,
    membership_family,
    reaches_origin,
)
from crystal_poly import oracle
from crystal_poly.crystal import SignatureLanes, _lane_width
from crystal_poly.inequalities import ClosureResult, epsilon_star_forms
from crystal_poly.oracle import (
    MAX_CANDIDATES,
    _candidate_matrix,
    random_reachable,
    weight_graded_counts,
)

from util import (
    DEFAULT_WORDS,
    GRID8,
    canonical_rows,
    compile_forms,
    make_context,
    reference_candidate_matrix,
    reference_compile_matrix,
    reference_closure,
    reference_feasible,
    reference_reaches_origin,
    reference_steps,
    signed_rows,
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
# The operator BFS on packed signature lanes
# ----------------------------------------------------------------------------------

LAMS4 = [None, {1: 1}, {1: 1, 2: 1}, {3: 2}]


def _weight_tally(ops, closure):
    return dict(Counter(map(ops.weight_coeffs, closure)))


@pytest.mark.parametrize("family,word", GRID8)
def test_closure_levels_equal_the_reference_bfs(family, word):
    ctx = Context(family, 3, word)
    for lam in LAMS4:
        ops = CrystalOps(ctx, lam)
        closure, levels = generate_closure(ops, 8)
        want_closure, want_levels = reference_closure(ops, 8)
        assert levels == want_levels, lam  # in order, level by level
        assert closure == want_closure
        assert weight_graded_counts(ops, 8) == _weight_tally(ops, want_closure)


def test_deep_closure_equals_the_reference_bfs():
    # the lanes grow from 16 to 32 to 60 levels, each time packed afresh
    ops = CrystalOps(Context("A1", 2, (2, 1)), {2: 1})
    closure, levels = generate_closure(ops, 60)
    want_closure, want_levels = reference_closure(ops, 60)
    assert len(closure) == 101_983
    assert levels == want_levels
    assert weight_graded_counts(ops, 60) == _weight_tally(ops, want_closure)


def _lane_walk(layout, ops, ks):
    """Lower from the origin at the colors ``ks`` through ``layout.lower``,
    checking every state against the one packed from ``apply_f``'s row.  In
    the limit crystal every color acts, each at its own position, so the
    children come one per color in color order."""
    x, state = ZVector.ZERO, layout.pack(())
    for k in ks:
        state = layout.lower([state], ops.ctx.n)[k - 1]
        x = ops.apply_f(x, k)
        assert state == layout.pack(x._row)
        assert layout.row(state) == x._row
        assert layout.tally([state]) == {ops.weight_coeffs(x): 1}
        for k2 in ops.ctx.colors():
            shifted, _ = ops._shifted(x._row, k2)
            shifted += shifted[-1:] * layout.levels
            assert list(layout.lanes(state[k2])) == [
                v + layout.bias for v in shifted[:layout.levels]]


@pytest.mark.parametrize("levels,width", [(8, 1), (63, 1), (64, 2), (70, 2)])
def test_signature_lanes_hold_their_bound(levels, width):
    # d lowerings at one color reach both ends of [-2d, 2d] in the limit
    # crystal of A1 at rank 2 (a(1, 2) = -2): lanes 0 and 4 * levels
    rng = random.Random(levels)
    for ctx in (Context("A1", 2, (2, 1)), Context("C1", 3, (3, 2, 1))):
        ops = CrystalOps(ctx, None)
        layout = SignatureLanes(ops, levels)
        assert (layout.width, layout.bias) == (width, 2 * levels)
        for k in ctx.colors():
            _lane_walk(layout, ops, [k] * levels)
        _lane_walk(layout, ops, [rng.choice(ctx.colors()) for _ in range(levels)])
    ops = CrystalOps(Context("A1", 2, (2, 1)), None)
    layout = SignatureLanes(ops, levels)
    top = layout.pack((levels,))  # f_2 applied levels times, at position 1
    assert (min(layout.lanes(top[2])), max(layout.lanes(top[1]))) == (0, 4 * levels)


@pytest.mark.parametrize("ctx", [make_context(f, w) for f, w in GRID8] + [
    Context("A1", 2, (2, 1)), Context("A1", 4, (2, 1, 3, 4)),
    Context("C1", 4, (1, 2, 3, 4)), Context("D2", 5, (1, 2, 3, 4, 5))],
    ids=lambda ctx: f"{ctx.family}-n{ctx.n}-" + "".join(map(str, ctx.word)))
def test_signature_lane_steps_equal_the_cartan_rule(ctx):
    # 12 contexts x 3 weights x 7 levels: 252 layouts, across the change from
    # one-byte to two-byte lanes (63 -> 64 levels) and the BFS's first layout (16)
    for lam in (None, {1: 1}, {2: 2}):
        ops = CrystalOps(ctx, lam)
        for levels in (0, 1, 5, 16, 63, 64, 70):
            layout = SignatureLanes(ops, levels)
            assert layout.steps == reference_steps(ctx, levels, layout.width), (lam, levels)


def test_closure_honours_the_node_cap(monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "1000")
    ops = CrystalOps(make_context("A1"), None)
    for search in (generate_closure, weight_graded_counts):
        with pytest.raises(RuntimeError) as err:
            search(ops, 14)
        # levels 0..7 keep 754 nodes, level 8 (693 nodes) passes the cap
        assert str(err.value) == ("operator BFS hit the node cap of 1000 nodes "
                                  "(CRYSTAL_POLY_NODE_CAP) at level 8 of depth 14: "
                                  "1000 nodes kept")
    assert sum(weight_graded_counts(ops, 7).values()) == 754


def test_closure_is_not_sized_by_the_requested_depth():
    # the zero weight: the origin alone, every later level empty
    ops = CrystalOps(make_context("A1"), {})
    t0 = time.perf_counter()
    assert weight_graded_counts(ops, 10**6) == {(0, 0, 0): 1}
    assert generate_closure(ops, 10**6) == ({ZVector.ZERO}, [[ZVector.ZERO]])
    assert time.perf_counter() - t0 < 2.0


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


def test_epsilon_star_forms_match_oracle_at_rank_4():
    # two seeded words per family, 30 walks of up to 12 steps each, supports
    # up to 15; budget 5 s (about 0.2 s on a 2-vCPU Xeon)
    t0 = time.perf_counter()
    rng = random.Random(4)
    supports = []
    for family in ("A1", "A2", "C1", "D2"):
        for _ in range(2):
            ctx = Context(family, 4, rng.sample(range(1, 5), 4))
            ops = CrystalOps(ctx, None)
            for _ in range(30):
                x = random_reachable(ops, rng, rng.randrange(0, 13))
                supports.append(x.max_pos())
                for k in ctx.colors():
                    assert epsilon_star_forms(ctx, x, k) == epsilon_star_oracle(ctx, x, k), (
                        family, ctx.word, x, k)
    assert max(supports) >= 14
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"over budget: {elapsed:.1f}s"


# ----------------------------------------------------------------------------------
# Random sampling and cross-module consistency
# ----------------------------------------------------------------------------------


def _two_pass_random_reachable(ops, rng, depth):
    """The walk random_reachable made when it lowered every chosen color twice:
    once to list the colors that lower, once more to step."""
    x = ZVector.ZERO
    for _ in range(depth):
        ks = [k for k in ops.ctx.colors() if ops.apply_f(x, k) is not None]
        if not ks:
            break
        x = ops.apply_f(x, rng.choice(ks))
    return x


@pytest.mark.parametrize("family,word", GRID8)
def test_random_reachable_draws_the_two_pass_walk(family, word, monkeypatch):
    ctx = make_context(family, word)
    for lam in (None, {1: 1}, {}):
        ops = CrystalOps(ctx, lam)
        want = [_two_pass_random_reachable(ops, random.Random(seed), 12) for seed in range(20)]
        calls = []
        apply_f = CrystalOps.apply_f
        monkeypatch.setattr(CrystalOps, "apply_f",
                            lambda self, x, k: calls.append(k) or apply_f(self, x, k))
        got = [random_reachable(ops, random.Random(seed), 12) for seed in range(20)]
        monkeypatch.undo()
        assert got == want
        # one lowering per color and step taken
        steps = sum(x.size() for x in got) + sum(x.size() < 12 for x in got)
        assert len(calls) == ctx.n * steps


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
            assert want.shape == (comb(support + total, total), support)
            rows = _candidate_matrix(support, total, matrix=compile_forms([], support))
            for got in (want.tolist(), rows):
                assert len(got) == comb(support + total, total)
                assert all(len(r) == support for r in got)
                assert len({tuple(r) for r in got}) == len(got)
                assert all(min(r, default=0) >= 0 and sum(r) <= total for r in got)
            assert rows == [*map(tuple, want.tolist())]
    assert len(reference_candidate_matrix(4, 2)) == 15
    assert len(_candidate_matrix(6, 2, matrix=compile_forms([], 6))) == 28


def _sweep_both(forms, support, total):
    """The pruned sweep's feasible set and the reference block sweep's, from
    one compiled matrix."""
    matrix = compile_forms(forms, support)
    rows = _candidate_matrix(support, total, matrix=matrix)
    coeffs, consts, _ = matrix
    assert rows == sorted(rows)
    return set(rows), reference_feasible(coeffs, consts, support, total)


def test_pruned_sweep_cuts_on_a_constant_row():
    # restricted to the support the row is the constant -1: nothing is feasible
    for support in range(4):
        coeffs, consts, starts = compile_forms([LinearForm(-1, {5: 1})], support)
        assert coeffs == [bytes(support)] and starts[:2] == [0, 1]
        got, want = _sweep_both([LinearForm(-1, {5: 1}), LinearForm(2, {1: -1})], support, 3)
        assert got == want == set()
    # a nonnegative constant row is dropped and cuts nothing
    got, want = _sweep_both([LinearForm(0, {5: -1})], 2, 2)
    assert got == want and len(got) == comb(4, 2)


def test_pruned_sweep_applies_a_last_column_row_at_the_end():
    # x3 <= 1 reads every column of a width-3 box
    form = LinearForm(1, {3: -1})
    coeffs, consts, starts = compile_forms([form], 3)
    assert starts == [0, 0, 0, 0, 1]
    got, want = _sweep_both([form], 3, 3)
    assert got == want
    assert got == {v for v in itertools.product(range(4), repeat=3)
                   if sum(v) <= 3 and v[2] <= 1}


def test_pruned_sweep_merges_duplicate_rows():
    # both restrict to x2 - x1 on the support; the smaller constant wins
    forms = [LinearForm(2, {1: -1, 2: 1}), LinearForm(1, {1: -1, 2: 1, 7: 3}),
             LinearForm(0, {2: -1, 3: 1})]
    matrix = compile_forms(forms, 3)
    assert signed_rows(matrix) == [((-1, 1, 0), 1), ((0, -1, 1), 0)]
    assert matrix[2] == [0, 0, 0, 1, 2]
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
        assert set(rows) == reference_feasible(coeffs, consts, support, total)
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


def _lane_codes(monkeypatch) -> list[str]:
    """The widths of the lanes the sweep packs its constants into, one per
    call, as b, h, i, q for 1, 2, 4, 8 bytes."""
    codes = []
    pack = oracle._pack

    def spy(values, code):
        codes.append("bh?i???q"[array(code).itemsize - 1])
        return pack(values, code)

    monkeypatch.setattr(oracle, "_pack", spy)
    return codes


def _random_forms(rng, support: int, count: int, most: int, consts) -> list[LinearForm]:
    """``count`` forms with up to three terms, coefficients in ``+-most``."""
    return [LinearForm(rng.choice(consts),
                       {p: rng.randint(-most, most) for p in rng.sample(range(1, support + 1),
                                                                         min(support, 3))})
            for _ in range(count)]


@pytest.mark.parametrize("support, total, most, code", [
    (4, 3, 21, "b"),     # |c| <= 63 // total: the linear parts fit one byte
    (4, 6, 126, "h"),    # |c| past 63 // total: 128 * total
    (5, 2, 126, "h"),
    (2, 200, 126, "i"),  # 2 * 128 * total past a signed short
], ids=["lane1", "lane2", "lane2-short-box", "lane4"])
def test_sweep_lanes_agree_with_the_referee(monkeypatch, support, total, most, code):
    codes = _lane_codes(monkeypatch)
    rng = random.Random(support * 1000 + total)
    bound = (most if code == "b" else 128) * total  # the sweep's clamp
    # rows the origin meets and other vectors may not; the last one's values
    # span -most * total .. most * total
    live = _random_forms(rng, support, 6, most, range(most * total + 1))
    live.append(LinearForm(0, {1: most, support: -most}))
    feasible, want = _sweep_both(live, support, total)
    assert feasible == want and 0 < len(feasible) < comb(support + total, total)
    # constants on both sides of the clamp to [-bound - 1, bound], and far past
    # it: the row with a negative constant cuts every vector here, the other none
    sizes = []
    for const in (-10**20, -bound - 3, -bound - 1, -bound, -bound + 1,
                  bound - 1, bound, bound + 1, bound + 3, 10**20):
        edge = LinearForm(const, {1: most if const < 0 else -most})
        got, want = _sweep_both(live + [edge], support, total)
        assert got == want, const
        sizes.append(len(got))
    assert sizes == [0] * 5 + [len(feasible)] * 5
    assert set(codes) == {code}


def test_sweep_with_eight_byte_lanes(monkeypatch):
    codes = _lane_codes(monkeypatch)
    total = 1 << 23  # 2 * 128 * total is past a signed int
    bound = 128 * total
    capped = LinearForm(400, {1: -126})  # x1 <= 3
    for extra, feasible in ((LinearForm(bound + 5, {1: -126}), 4),   # never cuts
                            (LinearForm(-bound - 5, {1: 126}), 0),   # cuts everything
                            (LinearForm(-126 * 2, {1: 126}), 2)):    # x1 >= 2
        matrix = compile_forms([capped, extra, LinearForm(10**20, {1: -1})], 1)
        got = _candidate_matrix(1, total, matrix=matrix)
        # every vector past x1 = 3 breaks the first row, so the box of entry
        # sum 8 holds every feasible vector
        assert got == sorted(reference_feasible(matrix[0], matrix[1], 1, 8))
        assert len(got) == feasible
    assert codes == ["q"] * 3


def test_bfs_and_sweep_pick_lanes_by_one_rule(monkeypatch):
    """On both sides of each lane boundary the rule, the operator BFS and the
    sweep pick one width: the fewest of 1, 2, 4 or 8 bytes whose lanes hold
    0..top, with top = 4 * levels for the BFS and 4 * bound for the sweep."""
    tops = (255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1)
    assert [_lane_width(top)[0] for top in tops] == [1, 2, 2, 4, 4, 8, 8]
    assert all(array(_lane_width(top)[1]).itemsize == _lane_width(top)[0] for top in tops)
    # the BFS at 63 and 64 levels (its wider boundaries take a step per level
    # and position to build)
    ops = CrystalOps(Context("A1", 2, (1, 2)), None)
    for levels, width in ((63, 1), (64, 2)):
        layout = SignatureLanes(ops, levels)
        assert (layout.width, layout.code) == _lane_width(4 * levels) and layout.width == width
    # the sweep: bound is total times the coefficient, or times 128 when a
    # coefficient passes 63 // total; a row with a negative constant makes
    # it return right after packing its constants
    codes = _lane_codes(monkeypatch)
    for total, coeff, width in ((1, 63, 1), (1, 64, 2), (127, 1, 2), (128, 1, 4),
                                (2**23 - 1, 1, 4), (2**23, 1, 8)):
        bound = (coeff if coeff <= 63 // total else 128) * total
        assert _lane_width(4 * bound)[0] == width
        matrix = compile_forms([LinearForm(-1), LinearForm(0, {1: -coeff})], 1)
        assert _candidate_matrix(1, total, matrix=matrix) == []
        assert codes.pop() == "bh?i???q"[width - 1], (total, coeff)


def test_sweep_at_support_zero_and_depth_zero():
    for consts, feasible in (([0, 5], True), ([-1], False), ([0, -10**20], False)):
        forms = [LinearForm(c) for c in consts]
        for support, total in ((0, 0), (0, 7), (3, 0)):
            matrix = compile_forms(forms, support)
            got = _candidate_matrix(support, total, matrix=matrix)
            assert got == ([(0,) * support] if feasible else [])
            assert set(got) == reference_feasible(matrix[0], matrix[1], support, total)
    # rows read past a zero-width box are constants there
    got, want = _sweep_both([LinearForm(1, {1: -1}), LinearForm(0, {2: -5})], 0, 3)
    assert got == want == {()}
    got, want = _sweep_both([LinearForm(1, {1: -1}), LinearForm(-1, {2: 1})], 2, 0)
    assert got == want == set()


def test_sweep_past_the_recursion_limit():
    support = sys.getrecursionlimit() + 7
    rng = random.Random(5)
    forms = _random_forms(rng, support, 40, 5, [0, 1, 2, 5])
    forms.append(LinearForm(0, {support: 1, support - 1: -1}))  # x[-1] >= x[-2]
    got, want = _sweep_both(forms, support, 1)
    assert got == want and 0 < len(got) < support + 1


def test_candidate_matrix_refuses_values_past_its_lanes():
    # a coefficient past 63 // total takes the signed-byte bound 128 per unit
    # of entry sum: 128 * 2**56 = 2**63 leaves no lane wide enough
    with pytest.raises(ValueError) as err:
        _candidate_matrix(1, 2**56, matrix=([b"\x05"], [-1], [0, 0, 1]))
    assert str(err.value) == (f"crosscheck row values reach {2**63}, "
                              "past the lane limit of 2**62 - 1")


def test_compile_matrix_keeps_the_strongest_constant_per_row():
    # both restrict to -x1 on the support; the larger constant is the weaker row
    weak = LinearForm(3, {1: -1, 5: 2})
    strong = LinearForm(1, {1: -1})
    for forms in ([weak, strong], [strong, weak]):
        assert signed_rows(compile_forms(forms, 3)) == [((-1, 0, 0), 1)]


@pytest.mark.parametrize("family", sorted(DEFAULT_WORDS))
def test_compile_matrix_equals_the_row_by_row_reference(family):
    ctx = make_context(family)
    for lam in (None, {1: 1}):
        for margin in (1, 2):
            support = 4 * ctx.n  # the crosscheck workload's depth 4
            family, converged = membership_family(ctx, lam, support, margin)
            assert converged
            forms = family.forms
            got = family.restriction(support)
            coeffs, consts = reference_compile_matrix(forms, support)
            want = [*zip(map(tuple, coeffs.tolist()), consts.tolist())]
            assert len(want) > 0
            for matrix in (got, compile_forms(forms, support)):
                assert canonical_rows(matrix) == want, (lam, margin)
                # rows starts[j]:starts[j + 1] read exactly the first j columns
                starts = matrix[2]
                reads = [max((i + 1 for i, c in enumerate(r) if c), default=0)
                         for r, _ in signed_rows(matrix)]
                assert starts == [sum(r < j for r in reads) for j in range(support + 2)]


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
        raise AssertionError("a closure was generated over the candidate limit")

    # neither the inequalities nor the operator closure are generated
    monkeypatch.setattr(oracle, "membership_family", unreachable)
    monkeypatch.setattr(oracle, "generate_closure", unreachable)
    ctx = make_context("A1")
    with pytest.raises(RuntimeError) as err:
        crosscheck_membership(ctx, None, 7)
    # the box at depth 6 already holds 296010 candidates: refused there, so
    # the count names the limit passed, not the box
    assert str(err.value) == (f"crosscheck needs more than {MAX_CANDIDATES} candidates "
                              "(support 21, depth 7)")
    # a forced window is the floor the box is counted at
    with pytest.raises(RuntimeError, match="support 2000, depth 2"):
        crosscheck_membership(ctx, {1: 1}, 2, window=2000)
    with pytest.raises(RuntimeError, match=r"more than \d+ candidates \(support 42, depth 14\)"):
        crosscheck_membership(make_context("A1", (2, 1, 3)), {1: 1}, 14)


def test_crosscheck_refuses_a_box_grown_past_the_limit(monkeypatch):
    # the window is small enough, the closure's reach is not: refused before
    # any inequality is generated
    def unreachable(*_args, **_kwargs):
        raise AssertionError("membership_family called over the candidate limit")

    monkeypatch.setattr(oracle, "membership_family", unreachable)
    ctx = make_context("A1")
    with pytest.raises(RuntimeError) as err:
        crosscheck_membership(ctx, None, 7, window=1)
    assert str(err.value) == ("crosscheck needs 170544 candidates (support 15, depth 7), "
                              f"over the limit of {MAX_CANDIDATES}")


def test_crosscheck_builds_no_form(monkeypatch):
    # the cross-check compiles its matrix from the closures' packed rows
    def refuse(_self):
        raise AssertionError("a closure was decoded into forms")

    monkeypatch.setattr(ClosureResult, "forms", property(refuse))
    rep = crosscheck_membership(make_context("A2"), {1: 1}, 3)
    assert rep["matched"] and rep["mismatches"] == []
