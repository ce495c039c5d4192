"""Linear forms, rewriting steps, closures, and membership checks."""

import random
import time
import tracemalloc
from functools import partial
from itertools import permutations

import pytest

from crystal_poly import inequalities
from crystal_poly.cartan import Context
from crystal_poly.crystal import CrystalOps, ZVector
from crystal_poly.inequalities import (
    ClosureResult,
    LinearForm,
    _bound,
    _close,
    _delta,
    boundary_closure_for_color,
    check_ample,
    check_positivity,
    check_strict_positivity,
    coupling_form,
    epsilon_star_forms,
    first_violation_positivity,
    limit_inequalities,
    membership,
    membership_family,
    offset_closure_for_color,
    rewrite,
    seed_offset,
    sorted_forms,
    variable,
    weight_inequalities,
    weight_seed,
)
from crystal_poly.oracle import random_reachable

from util import (
    GRID8,
    UNTWISTED_SERIES,
    instantiate,
    make_context,
    mk,
    reference_close,
    reference_membership,
    reference_weight_closure,
    run_rewrite_relation_checks,
    unpack_row,
)


# ----------------------------------------------------------------------------------
# LinearForm arithmetic and serialization
# ----------------------------------------------------------------------------------


def test_form_normalization():
    f = LinearForm(3, {2: 1, 5: 0, 1: -2})
    assert tuple(f.items()) == ((1, -2), (2, 1))
    assert f.get(5) == 0
    assert list(f.positions()) == [1, 2]
    assert f.max_pos() == 2
    with pytest.raises(ValueError):
        LinearForm(0, {0: 1})


def _random_form(rng, positions=9):
    terms = {rng.randrange(1, positions + 1): rng.choice((-3, -2, -1, 1, 2, 3))
             for _ in range(rng.randrange(0, 6))}
    return LinearForm(rng.randrange(-3, 4), terms)


def _dict_sum(a, b, sign=1):
    """Reference sum: add coefficients in a dict and rebuild with the checked
    public constructor."""
    t = dict(a.items())
    for p, c in b.items():
        t[p] = t.get(p, 0) + sign * c
    return LinearForm(a.constant + sign * b.constant, t)


def _check_dense_reads(rng, f):
    """The dense row reads like the form's terms: coefficients, evaluation,
    the terms round trip and the hand-built sort key of sparse forms."""
    terms = dict(f.items())
    again = LinearForm(f.constant, terms)
    assert again == f and hash(again) == hash(f) and [*again.items()] == [*f.items()]
    assert list(terms) == sorted(terms) and all(terms.values())
    m = f.max_pos()
    assert m == max(terms, default=0)
    assert f.get(0) == 0 and f.get(m + 1) == 0 and f.get(m + 7) == 0
    assert [f.get(p) for p in range(1, m + 1)] == [terms.get(p, 0) for p in range(1, m + 1)]
    assert f.sort_key() == (m, tuple(terms.get(p, 0) for p in range(1, m + 1)), f.constant)
    for size in (0, m // 2, m, m + 4):  # vectors shorter than, as long as, longer than f
        x = ZVector.from_list([rng.randrange(-2, 4) for _ in range(size)])
        assert f.evaluate(x) == f.constant + sum(c * x.get(p) for p, c in terms.items())


def test_add_matches_dict_sum():
    rng = random.Random(5)
    for _ in range(300):
        f, g = _random_form(rng), _random_form(rng)
        _check_dense_reads(rng, f)
        neg = LinearForm(-f.constant, {p: -c for p, c in f.items()})
        assert -f == neg and hash(-f) == hash(neg) and [*(-f).items()] == [*neg.items()]
        cases = [(f, g), (f, -f), (g, -g)]
        if f.max_pos():  # cancel the last position only: max_pos drops
            top, c = [*f.items()][-1]
            cases.append((f, LinearForm(1, {top: -c, 1: 1})))
        for a, b in cases:
            for got, want in ((a + b, _dict_sum(a, b)), (a - b, _dict_sum(a, b, -1))):
                assert got == want
                assert hash(got) == hash(want)
                assert [*got.items()] == [*want.items()]
                _check_dense_reads(rng, got)
    assert LinearForm(2, {3: 1, 5: -2}) + LinearForm(-2, {3: -1, 5: 2}) == LinearForm.ZERO
    f = LinearForm(0, {2: 1, 7: 4})
    dropped = f + LinearForm(0, {7: -4})
    assert dropped.max_pos() == 2 and dropped == variable(2)


def test_form_algebra():
    a = LinearForm(1, {1: 2, 3: -1})
    b = LinearForm(-1, {1: -2, 2: 5})
    assert a + b == LinearForm(0, {2: 5, 3: -1})
    assert a - a == LinearForm.ZERO
    assert -a == LinearForm(-1, {1: -2, 3: 1})
    assert a.evaluate(ZVector({1: 1, 3: 4})) == 1 + 2 - 4


def test_shift_periods_translates_series():
    ctx = make_context("A1")
    for pat in UNTWISTED_SERIES:
        base = mk(ctx, pat(1))
        for delta in (0, 1, 3):
            assert base.shift_periods(ctx.period, delta) == mk(ctx, pat(1 + delta))


def test_render_frozen():
    ctx = make_context("A1")  # word 2,1,3
    assert mk(ctx, {(1, 2): 1, (1, 1): -1}, 1).render(ctx) == "x[1,2] - x[1,1] + 1"
    assert mk(ctx, {(1, 2): -1}, 2).render(ctx) == "-x[1,2] + 2"
    assert mk(ctx, {(1, 1): 2, (2, 2): -1}).render(ctx) == "2*x[1,1] - x[2,2]"
    assert LinearForm.ZERO.render(ctx) == "0"
    assert LinearForm(-3).render(ctx) == "-3"


def test_to_json_frozen():
    frozen = mk(make_context("A1"), {(1, 1): 2, (2, 2): -1})
    assert frozen.to_json(make_context("A1")) == {
        "constant": 0,
        "terms": [{"s": 1, "k": 1, "coeff": 2}, {"s": 2, "k": 2, "coeff": -1}],
    }


def test_sorted_forms_deterministic():
    ctx = make_context("A1")
    forms = [mk(ctx, pat(s)) for pat in UNTWISTED_SERIES for s in (1, 2)]
    rng = random.Random(5)
    shuffled = forms[:]
    rng.shuffle(shuffled)
    assert sorted_forms(shuffled) == sorted_forms(forms)


# ----------------------------------------------------------------------------------
# Coupling forms, seeds, and single rewriting steps (frozen)
# ----------------------------------------------------------------------------------


def test_coupling_form_frozen():
    a1 = make_context("A1")
    for s in (1, 2, 3):
        assert coupling_form(a1, s, 1) == mk(
            a1, {(s, 1): 1, (s + 1, 1): 1, (s, 3): -1, (s + 1, 2): -1}
        )
    c1 = make_context("C1")
    assert coupling_form(c1, 2, 2) == mk(
        c1, {(2, 2): 1, (3, 2): 1, (3, 1): -2, (2, 3): -2}
    )


def test_weight_seed_frozen():
    ctx = make_context("A1")
    lam = {1: 1, 2: 2, 3: 3}
    assert weight_seed(ctx, lam, 1) == mk(ctx, {(1, 2): 1, (1, 1): -1}, 1)
    assert weight_seed(ctx, lam, 2) == mk(ctx, {(1, 2): -1}, 2)
    assert weight_seed(ctx, lam, 3) == mk(ctx, {(1, 2): 1, (1, 1): 1, (1, 3): -1}, 3)
    assert seed_offset(ctx, 2) == mk(ctx, {(1, 2): -1})


def test_plain_rewrite_branches():
    ctx = make_context("A1")
    v = variable(ctx.pos_of(2, 1))
    assert rewrite(ctx, None, v, v.max_pos()) == v - coupling_form(ctx, 2, 1)
    neg = -v
    assert rewrite(ctx, None, neg, v.max_pos()) == neg + coupling_form(ctx, 1, 1)
    first = -variable(ctx.pos_of(1, 1))
    assert rewrite(ctx, None, first, first.max_pos()) == first  # nothing below
    assert rewrite(ctx, None, v, 99) == v  # zero coefficient: no-op


def test_plain_step_can_lower_the_last_position():
    # a plain step can undo the step before it, and that lowers the last position
    ctx = make_context("A1")  # word 2,1,3: x[1,2] sits at position 1
    up = rewrite(ctx, None, variable(1), 1)
    assert up == mk(ctx, {(1, 1): 1, (1, 3): 1, (2, 2): -1})
    assert up.render(ctx) == "x[1,1] + x[1,3] - x[2,2]" and up.max_pos() == 4
    back = rewrite(ctx, None, up, 4)
    assert back == variable(ctx.pos_of(1, 2)) and back.max_pos() == 1


def test_rewrite_boundary_step_consumes_seed():
    ctx = make_context("A1")
    lam = {1: 1, 2: 2, 3: 3}
    seed2 = weight_seed(ctx, lam, 2)
    assert rewrite(ctx, lam, seed2, ctx.pos_of(1, 2)) == LinearForm.ZERO


def test_rewrite_relation_random():
    for family, lam in (("A1", {1: 2, 2: 1}), ("A2", {}), ("C1", {3: 4}), ("D2", None)):
        ctx = make_context(family)
        use = lam if lam is not None else {}
        ok, bad = run_rewrite_relation_checks(ctx, use, 150, seed=31)
        assert bad == 0
        assert ok >= 150


# ----------------------------------------------------------------------------------
# Closures
# ----------------------------------------------------------------------------------


def test_limit_closure_contains_series_instances():
    ctx = make_context("A1")
    clo = limit_inequalities(ctx, 6)
    assert clo.converged
    inst, count = instantiate(ctx, UNTWISTED_SERIES, 6)
    assert len(inst) == count  # instances are pairwise distinct
    assert inst <= clo.within(6)


def test_closure_within_filters_by_position():
    ctx = make_context("A1")
    clo = limit_inequalities(ctx, 6)
    assert clo.width == max(6, ctx.period)  # the entry point stops at the window
    assert clo.forms == clo.within(6)
    wide = limit_inequalities(ctx, 6 + 2 * ctx.period)
    assert all(f.max_pos() <= 6 for f in wide.within(6))
    assert any(f.max_pos() > 6 for f in wide.forms)  # a wider bound passes the window


def test_boundary_closure_singleton_case():
    ctx = make_context("A1")
    clo = boundary_closure_for_color(ctx, {2: 5}, 2, 6)
    assert clo.converged
    assert clo.within(6) == frozenset({mk(ctx, {(1, 2): -1}, 5), LinearForm.ZERO})


def test_weight_closure_contains_variables():
    ctx = make_context("A1")
    clo = weight_inequalities(ctx, {1: 1}, 4 + 2 * ctx.period)
    assert clo.converged
    for p in range(1, 5):
        assert variable(p) in clo.forms


W1 = {1: 1}
W12 = {1: 1, 2: 1}


def _closure_cases(ctx, window):
    """Each closure entry point with the (lam, seeds) parts it hands ``_close``."""
    variables = [variable(p) for p in range(1, _bound(ctx, window) + 1)]
    cases = [
        ("limit", limit_inequalities(ctx, window), [(None, variables)]),
        # the limit part united with each color's boundary part
        ("weight", weight_inequalities(ctx, W1, window),
         [(None, variables)] + [(W1, [weight_seed(ctx, W1, k)]) for k in ctx.colors()]),
    ]
    for k in ctx.colors():
        cases.append(("boundary", boundary_closure_for_color(ctx, W1, k, window),
                      [(W1, [weight_seed(ctx, W1, k)])]))
        cases.append(("offset", offset_closure_for_color(ctx, k, window),
                      [(None, [seed_offset(ctx, k)])]))
    # seeds past the bound: the search runs at the seeds' reach and keeps
    # every form inside it
    bound = _bound(ctx, window)
    past = [weight_seed(ctx, W1, 1), LinearForm(0, {bound + 1: -1}),
            LinearForm(0, {2: 1, bound + ctx.period: -1})]
    cases.append(("past", _close(past, _delta(ctx, W1), bound), [(W1, past)]))
    return cases


def _reach(ctx, window, seeds):
    """The bound ``_close`` runs at: the entry points' bound, or the last
    seed position if that lies further out."""
    return max([_bound(ctx, window)] + [f.max_pos() for f in seeds])


def _reference(ctx, window, parts):
    """``reference_close`` of each part, united up to the first unconverged
    one, as ``membership_family`` unites its parts."""
    forms, converged, pruned = frozenset(), True, 0
    for lam, seeds in parts:
        got, converged, more = reference_close(ctx, lam, seeds, _reach(ctx, window, seeds))
        forms, pruned = forms | got, pruned + more
        if not converged:
            break
    return forms, converged, pruned


@pytest.mark.parametrize("family,word", GRID8)
def test_close_matches_reference_driver(family, word):
    ctx = make_context(family, word)
    for window in (1, 2, 3, 4, 6):
        wide = window + 2 * ctx.period
        for name, res, parts in _closure_cases(ctx, wide):
            want = _reference(ctx, wide, parts)
            assert (res.forms, res.converged, res.pruned) == want, (name, window)
            assert res.converged


def test_weight_family_is_the_joint_seed_closure_on_every_small_word():
    # every adapted word at ranks 2-4 (rank 2 is A1's alone): the limit
    # closure united with the boundary ones has the rows of the closure of
    # the variables and every weight seed together; positivity of the limit
    # closure (Nakashima-Zelevinsky) is what makes the two agree
    contexts = [Context(family, n, word) for n in (2, 3, 4)
                for family in (("A1",) if n == 2 else ("A1", "A2", "C1", "D2"))
                for word in permutations(range(1, n + 1))]
    assert len(contexts) == 122
    cases = 0
    for ctx in contexts:
        n, margin = ctx.n, 2 * ctx.period
        for lam in ({1: 1}, {n: 1}, {1: 1, 2: 1}, {2: 3}, {}):
            for window in (1 + margin, n + margin, 2 * n + margin):
                got = weight_inequalities(ctx, lam, window)
                want = reference_weight_closure(ctx, lam, window)
                assert (got.rows, got.width, got.converged) == (
                    want.rows, want.width, want.converged), (ctx.family, ctx.word, lam, window)
                cases += 1
        assert check_positivity(ctx, limit_inequalities(ctx, 2 * n + margin).forms), (
            ctx.family, ctx.word)
    assert cases == 1830


@pytest.mark.parametrize("family,word", GRID8)
def test_close_matches_reference_driver_when_capped(family, word, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "50")
    ctx = make_context(family, word)
    for window in (3, 4):
        wide = window + 2 * ctx.period
        for name, res, parts in _closure_cases(ctx, wide):
            want = _reference(ctx, wide, parts)
            assert (res.forms, res.converged, res.pruned) == want, (name, window)
            if name in ("limit", "weight"):
                assert not res.converged and len(res.forms) == 50


def _entry_points(ctx):
    """Each window-sliced entry point as a function of the window, with the
    (lam, seeds) parts it closes; seeds ``None`` are the variables up to the
    bound."""
    plain = (None, None)
    cases = [("limit", partial(limit_inequalities, ctx), [plain])]
    for lam in (W1, W12):
        boundary = [(lam, [weight_seed(ctx, lam, k)]) for k in ctx.colors()]
        cases.append((("weight", lam), partial(weight_inequalities, ctx, lam),
                      [plain] + boundary))
        cases += [(("boundary", lam, k), partial(boundary_closure_for_color, ctx, lam, k), [part])
                  for k, part in zip(ctx.colors(), boundary)]
    cases += [(("offset", k), partial(offset_closure_for_color, ctx, k),
               [(None, [seed_offset(ctx, k)])]) for k in ctx.colors()]
    return cases


def test_entry_points_keep_the_margin_two_rows_inside_the_window():
    # every entry point stops at its window, yet keeps inside it the rows and
    # the convergence of its parts closed two periods further out
    t0 = time.perf_counter()
    cases = short = 0
    for family, word in GRID8:
        ctx = make_context(family, word)
        built = {}

        def cut(parts, bound, window):
            """The parts closed with ``_close`` at the bound, cut to the window."""
            forms, converged = frozenset(), True
            for part in parts:
                res = built.get((id(part), bound))
                if res is None:
                    lam, seeds = part
                    seeds = seeds or [variable(p) for p in range(1, bound + 1)]
                    res = built[id(part), bound] = _close(seeds, _delta(ctx, lam), bound)
                forms, converged = forms | res.within(window), converged and res.converged
            return forms, converged

        entry_points = _entry_points(ctx)
        for window in range(13):
            for name, entry, parts in entry_points:
                res = entry(window)
                want = cut(parts, window + 2 * ctx.period, window)
                assert (res.within(window), res.converged) == want, (family, word, name, window)
                # negative control: closed one position short of the window,
                # the same comparison fails
                short += window > 0 and cut(parts, window - 1, window) != want
                cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 8 * 13 * 12 and short > 0
    assert elapsed < 10, f"over budget: {elapsed:.1f}s"


@pytest.mark.parametrize("lam", [{1: 1000}, {1: 70, 2: 70}])
@pytest.mark.parametrize("family,word", GRID8)
def test_close_matches_reference_driver_with_constants_past_a_byte(family, word, lam):
    ctx = make_context(family, word)
    bound = 3 + 2 * ctx.period
    variables = [variable(p) for p in range(1, bound + 1)]
    weight = [weight_seed(ctx, lam, k) for k in ctx.colors()]
    for seeds in [variables + weight] + [[seed] for seed in weight]:
        res = _close(seeds, _delta(ctx, lam), bound)
        assert (res.forms, res.converged, res.pruned) == reference_close(ctx, lam, seeds, bound)
        assert res.converged
        assert max(f.constant for f in res.forms) == max(f.constant for f in seeds)


def test_close_keeps_coefficients_at_the_edge_of_the_packed_span():
    def step(pos, positive):
        if not positive:
            return None
        return {1: LinearForm(0, {1: -1, 2: 63}), 2: LinearForm(0, {2: -63, 3: -63})}.get(pos)

    res = _close([variable(1)], step, 4)
    assert res.forms == {variable(1), LinearForm(0, {2: 63}), LinearForm(0, {3: -63})}
    assert res.converged and res.pruned == 0


def test_close_refuses_coefficients_outside_the_packed_span():
    def grow(pos, positive):  # the coefficient at pos runs 1, 41, 81, ...
        return LinearForm(0, {pos: 40}) if positive else None

    with pytest.raises(RuntimeError, match=r"coefficient 81 at position 2 is outside "
                                           r"the packed-row limit of \+-63"):
        _close([variable(2)], grow, 4)
    # a step or a seed outside the span is refused before it is added
    with pytest.raises(RuntimeError, match="coefficient 64 at position 1 "):
        _close([variable(1)], lambda pos, positive: LinearForm(0, {pos: 64}), 4)
    with pytest.raises(RuntimeError, match="coefficient -200 at position 3 "):
        _close([LinearForm(0, {3: -200})], grow, 4)


def test_node_cap_stops_generation(monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    ctx = make_context("A1")
    assert not limit_inequalities(ctx, 6 + 2 * ctx.period).converged


def test_close_keeps_no_more_rows_than_the_byte_limit(monkeypatch):
    """``_close`` keeps at most ``min(node_cap(), _ROW_BYTES // width)``
    rows.  Past the byte part it raises, naming the width, the rows and the
    limit; the node cap, where it binds, still gives an unconverged result."""
    ctx = make_context("A1")
    seeds, step = [variable(p) for p in range(1, 13)], _delta(ctx, None)
    full = _close(seeds, step, 12)
    rows = len(full)
    assert full.converged and rows == 365
    monkeypatch.setattr(inequalities, "_ROW_BYTES", 12 * rows)  # room for every row
    again = _close(seeds, step, 12)
    assert again.converged and again.rows == full.rows
    monkeypatch.setattr(inequalities, "_ROW_BYTES", 12 * rows - 1)
    with pytest.raises(RuntimeError) as exc:
        _close(seeds, step, 12)
    assert str(exc.value) == (f"closure at width 12 needs more than {rows - 1} rows of 12 "
                              f"bytes, over the limit of {12 * rows - 1} bytes")
    for cap in (rows - 1, rows - 2):  # the cap binds at or below the byte part
        monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", str(cap))
        capped = _close(seeds, step, 12)
        assert not capped.converged and len(capped) == cap

    def no_step(pos, positive):
        raise AssertionError("a step was built")

    # seeds past the byte part are refused before any step
    monkeypatch.setattr(inequalities, "_ROW_BYTES", 12 * 2)
    with pytest.raises(RuntimeError, match="needs more than 2 rows of 12 bytes"):
        _close([variable(p) for p in (1, 2, 3)], no_step, 12)


def test_close_builds_steps_only_for_the_positions_its_rows_reach():
    """At width 10**6 + 1 the step table of ``_close`` covers the positions
    its rows reach, not the width (a table over the width took 115 MiB
    before the first row): a narrow closure converges in a few MiB, and a
    wide one stops at the byte limit holding little besides its rows."""
    ctx = make_context("A1")
    width = 10**6 + 1
    tracemalloc.start()
    try:
        narrow = boundary_closure_for_color(ctx, {1: 1}, 2, width)
        narrow_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(RuntimeError, match=f"closure at width {width} needs more than 67 "):
            offset_closure_for_color(ctx, 1, width)
        wide_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert narrow.converged and len(narrow) == 2
    assert narrow_peak < 16 * width
    assert wide_peak < inequalities._ROW_BYTES + 16 * width


def _count_close_calls(monkeypatch):
    """Empty the plain-closure cache and count the ``_close`` calls made."""
    monkeypatch.setattr(inequalities, "_PLAIN_CACHE", {})
    calls = []

    def counted(seeds, delta, bound):
        calls.append(bound)
        return _close(seeds, delta, bound)

    monkeypatch.setattr(inequalities, "_close", counted)
    return calls


def test_membership_family_shares_the_plain_closure_across_weights(monkeypatch):
    calls = _count_close_calls(monkeypatch)
    ctx = make_context("A1")
    plain, _ = membership_family(ctx, None, 6)
    assert len(calls) == 1
    weighted, _ = membership_family(ctx, W1, 6)
    assert len(calls) == 1 + ctx.n  # one boundary closure per color, no plain one
    assert plain.forms <= weighted.forms
    assert limit_inequalities(ctx, 6 + ctx.period).forms == plain.forms  # the same bound
    assert limit_inequalities(ctx, 6 + ctx.period) is plain  # the cached result itself
    assert len(calls) == 1 + ctx.n


def test_membership_family_stops_at_its_first_capped_part(monkeypatch):
    # C1 word 1,3,2 at support 3: a limit closure of 11 forms, then omega_1
    # boundary closures of 2, 20 and 2 forms
    monkeypatch.setattr(inequalities, "_PLAIN_CACHE", {})
    built = []

    def counted(seeds, delta, bound):
        built.append(_close(seeds, delta, bound))
        return built[-1]

    monkeypatch.setattr(inequalities, "_close", counted)
    ctx = make_context("C1", (1, 3, 2))
    assert membership_family(ctx, W1, 3)[1] and [len(r) for r in built] == [11, 2, 20, 2]
    for cap, sizes in ((15, [11, 2, 15]), (8, [8])):
        monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", str(cap))
        built.clear()
        family, converged = membership_family(ctx, W1, 3)
        # no closure is built after the first unconverged one
        assert not converged and [len(r) for r in built] == sizes, cap
        assert [r.converged for r in built] == [True] * (len(sizes) - 1) + [False]
        assert family.rows == set().union(*(r.rows for r in built))


def test_plain_closure_cache_never_stores_an_unconverged_result(monkeypatch):
    calls = _count_close_calls(monkeypatch)
    ctx = make_context("A1")
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "50")
    for _ in range(2):
        assert not limit_inequalities(ctx, 6 + 2 * ctx.period).converged
    assert len(calls) == 2 and inequalities._PLAIN_CACHE == {}


def test_plain_closure_cache_is_keyed_by_the_node_cap(monkeypatch):
    _count_close_calls(monkeypatch)
    ctx = make_context("A1")
    full = limit_inequalities(ctx, 6 + 2 * ctx.period)
    assert full.converged and len(full.forms) > 50
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "50")
    capped = limit_inequalities(ctx, 6 + 2 * ctx.period)
    assert not capped.converged and len(capped.forms) == 50


def _membership_parts(ctx, lam, support, margin):
    """The closures ``membership_family`` unites, built through the entry
    points, which stop at their window: here ``margin`` periods past the
    support."""
    window = support + margin * ctx.period
    parts = [limit_inequalities(ctx, window)]
    if lam is not None:
        parts += [boundary_closure_for_color(ctx, lam, k, window) for k in ctx.colors()]
    return parts


@pytest.mark.parametrize("family,word", GRID8)
def test_restriction_is_the_decoded_forms_cut_to_the_support(family, word):
    ctx = make_context(family, word)
    for lam in (None, W1, W12):
        for support in range(3, 10):
            for margin in range(3):
                parts = _membership_parts(ctx, lam, support, margin)
                family_res, converged = membership_family(ctx, lam, support, margin)
                assert converged
                assert frozenset().union(*(r.forms for r in parts)) == family_res.forms
                for res in parts + [family_res]:
                    assert _restriction_groups(res, support) == _negative_rows(res, support), (
                        lam, support, margin)


def _negative_rows(res, support: int) -> list[dict]:
    """From the decoded forms: the restrictions to the support that can go
    negative, each with its smallest constant, grouped by last active column."""
    groups = [{} for _ in range(support + 1)]
    for f in res.forms:
        vec = tuple(f.get(p) for p in range(1, support + 1))
        if f.constant < 0 or min(vec, default=0) < 0:
            group = groups[max((p for p, c in enumerate(vec, 1) if c), default=0)]
            group[vec] = min(f.constant, group.get(vec, f.constant))
    return groups


def _restriction_groups(res, support: int) -> list[dict]:
    """``res.restriction(support)`` read back group by group."""
    coeffs, consts, starts = res.restriction(support)
    assert len(coeffs) == len(consts) == starts[-1] and len(starts) == support + 2
    assert all(len(c) == support for c in coeffs)
    groups = [dict(zip((tuple(memoryview(c).cast("b")) for c in coeffs[lo:hi]), consts[lo:hi]))
              for lo, hi in zip(starts, starts[1:])]
    assert sum(map(len, groups)) == len(coeffs)  # no restriction twice
    return groups


def test_restriction_pads_past_the_width():
    res = _close([LinearForm(-2, {1: 3, 2: -1})], lambda pos, positive: None, 2)
    coeffs, consts, starts = res.restriction(4)
    assert res.width == 2 and [list(memoryview(c).cast("b")) for c in coeffs] == [[3, -1, 0, 0]]
    assert consts == [-2] and starts == [0, 0, 0, 1, 1, 1]
    assert _restriction_groups(res, 4) == _negative_rows(res, 4)


@pytest.mark.parametrize("family,word", GRID8)
def test_within_on_undecoded_rows_filters_the_decoded_forms(family, word):
    ctx = make_context(family, word)
    for lam in (None, W1):
        for res in _membership_parts(ctx, lam, 6, 1) + [membership_family(ctx, lam, 6, 1)[0]]:
            forms = res.forms
            for window in range(-1, res.width + 1):
                fresh = ClosureResult(res.rows, res.width, res.converged, res.pruned)
                want = frozenset(f for f in forms if f.max_pos() <= window)
                assert fresh.within(window) == want == res.within(window), window


def test_epsilon_star_forms_closes_once_per_color_at_the_vectors_window(monkeypatch):
    calls = _count_close_calls(monkeypatch)
    ctx = make_context("A1")
    for x in (ZVector({2: 1}), ZVector({2: 1, 7: 1})):
        calls.clear()
        values = [epsilon_star_forms(ctx, x, k) for k in ctx.colors()]
        window = max(x.max_pos(), ctx.period)
        assert calls == [window] * ctx.n  # no margin past the window
        assert inequalities._PLAIN_CACHE == {}
        assert values == [epsilon_star_forms(ctx, x, k, window) for k in ctx.colors()]


# ----------------------------------------------------------------------------------
# Membership
# ----------------------------------------------------------------------------------


def test_membership_family_highest_weight():
    ctx = make_context("A1")
    forms, conv = membership_family(ctx, {1: 1}, support=6)
    assert conv
    ok, _ = membership(forms, ZVector({2: 1}))  # one lowering step from zero
    assert ok
    bad, witness = membership(forms, ZVector({1: 1}))  # blocked direction
    assert not bad
    assert witness == mk(ctx, {(1, 2): -1}, 0)
    assert witness.evaluate(ZVector({1: 1})) == -1


def test_membership_family_limit_crystal():
    ctx = make_context("A1")
    forms, conv = membership_family(ctx, None, support=13)
    assert conv
    star = ZVector.from_list((1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 0, 1))
    assert membership(forms, star)[0]
    lone = ZVector({4: 1})  # second color-1 slot filled alone: unreachable
    assert not membership(forms, lone)[0]


@pytest.mark.parametrize("family,word", GRID8)
def test_membership_family_shares_the_entry_points_margin(family, word):
    # m margin periods past the support is the entry points' bound at a
    # window m periods beyond the support
    ctx = make_context(family, word)
    support = 6
    for m in (1, 2):
        window = support + m * ctx.period
        for lam in (None, W1):
            want = set(limit_inequalities(ctx, window).forms)
            if lam is not None:
                for k in ctx.colors():
                    want |= boundary_closure_for_color(ctx, lam, k, window).forms
            got, converged = membership_family(ctx, lam, support, m)
            assert (got.forms, converged) == (frozenset(want), True), (m, lam)


@pytest.mark.parametrize("family", ["A1", "A2", "C1", "D2"])
@pytest.mark.parametrize("lam", [None, W1])
def test_membership_witness_is_first_violated_in_sorted_order(family, lam):
    ctx = make_context(family)
    ops = CrystalOps(ctx, lam)
    support = 6
    forms, conv = membership_family(ctx, lam, support)
    assert conv
    ordered = sorted_forms(forms)
    rng = random.Random(17)
    members = rejected = 0
    for i in range(300):
        if i % 3 == 0:
            x = random_reachable(ops, rng, rng.randrange(0, 6))
        else:
            x = ZVector({rng.randrange(1, support + 1): rng.randrange(-1, 3)
                         for _ in range(rng.randrange(0, 5))})
        want = next((f for f in ordered if f.evaluate(x) < 0), None)
        assert membership(forms, x) == (want is None, want)
        members += want is None
        rejected += want is not None
    assert members and rejected


def _query_vectors(rng, support: int, width: int) -> list[ZVector]:
    """Zero, negative entries, entries past ``width``, entries of 64 and
    more, and small random vectors on ``1..support``."""
    return [
        ZVector.ZERO,
        ZVector({1: -1, support + 1: 2}),
        ZVector({1: 1, width + 1: 5, width + 7: -3}),
        ZVector({1: 64, support + 1: 200, width + 2: 1000}),
        *(ZVector({rng.randrange(1, support + 1): rng.randrange(-1, 3) for _ in range(3)})
          for _ in range(4)),
    ]


@pytest.mark.parametrize("family,word", GRID8)
def test_values_are_the_decoded_rows_evaluated_in_row_order(family, word):
    ctx = make_context(family, word)
    rng = random.Random(5)
    for lam in (None, W1, W12):
        for support in range(1, 10):
            for margin in range(3):
                res, converged = membership_family(ctx, lam, support, margin)
                assert converged and len(res) == len(res.rows)
                decoded = [unpack_row(row, res.width) for row in res.rows]
                for x in _query_vectors(rng, support, res.width):
                    assert res.values(x) == [f.evaluate(x) for f in decoded], (lam, support, x)


@pytest.mark.parametrize("family,word", GRID8)
def test_membership_matches_the_form_by_form_reference(family, word):
    ctx = make_context(family, word)
    rng = random.Random(11)
    members = rejected = 0
    for lam in (None, W1, W12):
        ops = CrystalOps(ctx, lam)
        for support in (1, 3, 6, 9):
            for margin in range(3):
                res, _ = membership_family(ctx, lam, support, margin)
                forms = [unpack_row(row, res.width) for row in res.rows]
                xs = [random_reachable(ops, rng, rng.randrange(0, 6)) for _ in range(4)]
                xs += _query_vectors(rng, support, res.width)
                for x in xs:
                    want = reference_membership(forms, x)
                    assert membership(res, x) == want, (lam, support, margin, x)
                    members += want[0]
                    rejected += not want[0]
    assert members and rejected


def test_a_member_query_decodes_no_row(monkeypatch):
    monkeypatch.setattr(inequalities, "_PLAIN_CACHE", {})
    decoded = []
    decode = ClosureResult._decode

    def spy(self, rows):
        rows = list(rows)
        decoded.append(rows)
        return decode(self, rows)

    monkeypatch.setattr(ClosureResult, "_decode", spy)
    ctx = make_context("A1")
    plain, _ = membership_family(ctx, None, 6)
    union, _ = membership_family(ctx, W1, 6)
    for res in (plain, union):
        assert membership(res, ZVector({2: 1})) == (True, None)
    assert decoded == []
    x = ZVector({1: 1})
    ok, witness = membership(union, x)
    assert not ok and witness == mk(ctx, {(1, 2): -1}, 0)
    # only the violated rows are decoded, once
    violated = [row for row, value in zip(union.rows, union.values(x)) if value < 0]
    assert len(decoded) == 1 and sorted(decoded[0]) == sorted(violated)
    assert 0 < len(violated) < len(union)


def test_membership_family_is_the_union_of_parts_one_period_wide():
    # the bound never drops below one period, where every boundary seed
    # lies, so even at support 1 and no margin all parts share one width
    ctx = make_context("A1")  # word 2,1,3
    parts = _membership_parts(ctx, W1, 1, 0)
    assert [res.width for res in parts] == [ctx.period] * (1 + ctx.n)
    res, converged = membership_family(ctx, W1, 1, 0)
    assert converged and res.width == ctx.period
    assert res.rows == set().union(*(r.rows for r in parts))
    assert res.forms == frozenset().union(*(r.forms for r in parts))
    assert len(res) == len(res.forms) == len(list(res))
    for x in (ZVector.ZERO, ZVector({1: 1}), ZVector({1: 2, 2: -1, 3: 70}), ZVector({3: 1, 5: 1})):
        assert res.values(x) == [unpack_row(row, res.width).evaluate(x) for row in res.rows]
        assert membership(res, x) == reference_membership(res.forms, x)


# ----------------------------------------------------------------------------------
# Starred string values from forms
# ----------------------------------------------------------------------------------


def test_epsilon_star_forms_frozen():
    ctx = make_context("A1")
    assert [epsilon_star_forms(ctx, ZVector.ZERO, k) for k in ctx.colors()] == [0, 0, 0]
    x = ZVector.from_list([3, 3, 2, 3, 2, 1])
    assert [epsilon_star_forms(ctx, x, k) for k in ctx.colors()] == [1, 3, 0]
    # explicit window consistent with the default
    assert epsilon_star_forms(ctx, x, 2, window=12) == 3


def test_epsilon_star_forms_decodes_no_row(monkeypatch):
    # criterion 4's vectors, against the maximum of -f(x) over the decoded
    # offset closure, with every closure's forms refused
    a1 = make_context("A1")
    cases = [(a1, ZVector.from_list([3, 3, 2, 3, 2, 1]), k) for k in a1.colors()]
    for fam in ("A1", "A2", "C1", "D2"):
        ctx = make_context(fam)
        ops = CrystalOps(ctx, None)
        rng = random.Random(20250825)
        for _ in range(220):
            x = random_reachable(ops, rng, rng.randrange(0, 7))
            cases += [(ctx, x, k) for k in ctx.colors()]
    want = []
    for ctx, x, k in cases:
        window = max(x.max_pos(), ctx.period)
        offsets = _close([seed_offset(ctx, k)], _delta(ctx, None), window).forms
        want.append(max(0, max(-f.evaluate(x) for f in offsets)))
    assert want[:3] == [1, 3, 0]

    def refuse(_self):
        raise AssertionError("a closure was decoded into forms")

    monkeypatch.setattr(ClosureResult, "forms", property(refuse))
    assert [epsilon_star_forms(ctx, x, k) for ctx, x, k in cases] == want


def test_epsilon_star_forms_refuses_a_negative_entry():
    ctx = make_context("A1")
    for x in (ZVector.from_list([-1]), ZVector.from_list([3, 0, -1])):
        with pytest.raises(ValueError, match="vector has negative entries"):
            epsilon_star_forms(ctx, x, 1)


def test_epsilon_star_forms_node_cap_error_names_its_numbers(monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    ctx = make_context("A1")
    x = ZVector.from_list([3, 3, 2, 3, 2, 1])
    with pytest.raises(RuntimeError) as err:
        epsilon_star_forms(ctx, x, 3)
    # window and closure bound max(6, 3) = 6, where the closure has 8 forms
    assert str(err.value) == (
        "offset closure for color 3 hit the node cap of 5 forms (closure bound 6); "
        "raise CRYSTAL_POLY_NODE_CAP or lower the window")


# ----------------------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------------------


def test_positivity_checks():
    ctx = make_context("A1")
    wide = 6 + 2 * ctx.period
    assert check_positivity(ctx, limit_inequalities(ctx, wide).forms)
    assert check_strict_positivity(ctx, wide)
    bad = mk(ctx, {(1, 1): -1})
    hit = first_violation_positivity(ctx, [bad])
    assert hit == (bad, ctx.pos_of(1, 1))
    assert not check_positivity(ctx, [bad])


def test_first_violation_positivity_takes_the_smallest_violator():
    ctx = make_context("A1")  # word 2,1,3: first occurrences at positions 1..3
    smaller = LinearForm(0, {2: 1, 3: -1})
    larger = LinearForm(5, {1: 1, 2: -2, 3: 1})
    fine = LinearForm(-1, {1: 1, 4: -1})
    assert smaller.sort_key() < larger.sort_key()
    for forms in ([larger, smaller, fine], [fine, smaller, larger], {larger, smaller, fine}):
        assert first_violation_positivity(ctx, forms) == (smaller, 3)
    assert first_violation_positivity(ctx, [larger, fine]) == (larger, 2)
    assert first_violation_positivity(ctx, [fine]) is None


def test_offset_closure_seed_is_only_negative_start():
    ctx = make_context("C1")
    for k in ctx.colors():
        res = offset_closure_for_color(ctx, k, 6 + 2 * ctx.period)
        assert res.converged
        assert check_positivity(ctx, res.forms - {seed_offset(ctx, k)})


def test_check_ample():
    assert check_ample([LinearForm.ZERO, LinearForm(2, {1: -1})])
    assert not check_ample([LinearForm(-1, {1: 1})])
