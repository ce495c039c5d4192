"""Sparse vectors and raising/lowering operator actions."""

import random

import pytest

from crystal_poly import CrystalOps, ZVector, generate_closure

from util import DEFAULT_WORDS, make_context, reference_operators, run_axiom_checks


# ----------------------------------------------------------------------------------
# ZVector container behavior
# ----------------------------------------------------------------------------------


def test_zvector_drops_zeros_and_validates():
    x = ZVector({1: 2, 3: 0, 5: -1})
    assert dict(x.items()) == {1: 2, 5: -1}
    assert x.get(3) == 0
    assert x.size() == 1
    assert x.max_pos() == 5
    assert not x.nonnegative()
    with pytest.raises(ValueError):
        ZVector({0: 1})


def test_zvector_constructors_and_round_trips():
    ctx = make_context("A1")  # word 2,1,3
    a = ZVector.from_list([0, 1, 0, 2])
    assert dict(a.items()) == {2: 1, 4: 2}
    b = ZVector({ctx.pos_of(1, 1): 1, ctx.pos_of(2, 2): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a.to_sk(ctx) == {(1, 1): 1, (2, 2): 2}
    assert a.to_tuple(5) == (0, 1, 0, 2, 0)
    assert a.render(ctx) == "{(1,1):1, (2,2):2}"
    assert ZVector.ZERO.is_zero() and ZVector.ZERO.render(ctx) == "0"


def test_zvector_parse_both_notations():
    ctx = make_context("A1")
    assert ZVector.parse("[0, 1, 0, 2]", ctx) == ZVector({2: 1, 4: 2})
    assert ZVector.parse("{(1,1): 1, (2,2): 2}", ctx) == ZVector({2: 1, 4: 2})
    assert ZVector.parse("{3: 5}", ctx) == ZVector({3: 5})
    with pytest.raises(ValueError):
        ZVector.parse("7", ctx)


def test_zvector_parse_refuses_positions_past_the_node_cap(monkeypatch):
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "50")
    ctx = make_context("A1")  # word 2,1,3: (17,1) is position 50, (17,3) is 51
    assert ZVector.parse("{50: 1}", ctx).max_pos() == 50
    assert ZVector.parse("{(17,1): 1}", ctx).max_pos() == 50
    assert ZVector.parse(str([1] + [0] * 60), ctx).max_pos() == 1  # trailing zeros
    for text in ("{51: 1}", "{(17,3): 1}", str([0] * 50 + [1])):
        with pytest.raises(ValueError, match="position 51 lies past the limit of 50"):
            ZVector.parse(text, ctx)


def test_zvector_parse_refuses_a_repeated_position():
    ctx = make_context("A1")  # word 2,1,3: (1,1) is position 2
    for text in ("{(1,1): 1, 2: 5}", "{2: 1, 2: 5}", "{(1,1): 1, (1,1): 1}"):
        with pytest.raises(ValueError, match="vector position 2 is given twice"):
            ZVector.parse(text, ctx)
    assert ZVector.parse("{(1,1): 1, 3: 5}", ctx) == ZVector({2: 1, 3: 5})


def test_with_delta_is_functional():
    x = ZVector({2: 1})
    y = x.with_delta(2, -1)
    assert y.is_zero()
    assert x == ZVector({2: 1})  # original untouched
    assert x.with_delta(4, 3) == ZVector({2: 1, 4: 3})
    # the last entry vanishing drops every trailing zero
    y = ZVector({1: -2, 5: 1}).with_delta(5, -1)
    assert y == ZVector({1: -2}) and y.max_pos() == 1 and hash(y) == hash(ZVector({1: -2}))


# ----------------------------------------------------------------------------------
# First operator steps (frozen)
# ----------------------------------------------------------------------------------


def test_limit_crystal_first_steps():
    ctx = make_context("A1")
    ops = CrystalOps(ctx, None)
    for k in ctx.colors():
        y = ops.apply_f(ZVector.ZERO, k)
        assert y == ZVector({ctx.first_pos(k): 1})
        assert ops.apply_e(y, k) == ZVector.ZERO
    assert ops.apply_e(ZVector.ZERO, 1) is None


def test_zero_weight_crystal_is_a_point():
    ctx = make_context("A1")
    ops = CrystalOps(ctx, {})
    for k in ctx.colors():
        assert ops.apply_f(ZVector.ZERO, k) is None
        assert ops.apply_e(ZVector.ZERO, k) is None
        assert ops.epsilon(ZVector.ZERO, k) == 0
        assert ops.phi(ZVector.ZERO, k) == 0


def test_fundamental_weight_first_steps():
    ctx = make_context("A1")  # word 2,1,3: color 1 sits at position 2
    ops = CrystalOps(ctx, {1: 1})
    assert ops.apply_f(ZVector.ZERO, 1) == ZVector({2: 1})
    assert ops.apply_f(ZVector.ZERO, 2) is None
    assert ops.apply_f(ZVector.ZERO, 3) is None


def test_structure_functions_frozen():
    ctx = make_context("A1")
    x = ZVector({2: 1})  # one color-1 box
    free = CrystalOps(ctx, None)
    assert free.epsilon(x, 1) == 1
    assert free.phi(x, 1) == -1
    assert free.weight_pairing(x, 1) == -2
    assert free.weight_coeffs(x) == (1, 0, 0)
    cut = CrystalOps(ctx, {1: 1})
    assert cut.epsilon(x, 1) == 1
    assert cut.phi(x, 1) == 0
    assert cut.apply_f(x, 1) is None  # no headroom left at this weight


def test_long_lowering_word_frozen():
    ctx = make_context("A1")
    ops = CrystalOps(ctx, None)
    got = ZVector.ZERO
    for k in [3] + [1] * 2 + [2] * 3 + [3] * 2 + [1] * 3 + [2] * 3:
        got = ops.apply_f(got, k)
    assert got == ZVector.from_list((1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 1, 0, 1))


def test_operators_stop_at_dead_ends():
    ctx = make_context("A1")
    ops = CrystalOps(ctx, {1: 1})
    once = ops.apply_f(ZVector.ZERO, 1)
    assert once is not None and ops.apply_f(once, 1) is None
    assert ops.apply_e(ZVector.ZERO, 1) is None


# ----------------------------------------------------------------------------------
# The dense-row kernel against the sparse reference
# ----------------------------------------------------------------------------------


def _ambient_vectors(rng, count):
    """Random vectors with gaps and negative entries, the zero vector among them."""
    out = [ZVector.ZERO]
    for _ in range(count):
        size = rng.randint(1, 6)
        out.append(ZVector({rng.randint(1, 15): rng.randint(-3, 4) for _ in range(size)}))
    return out


@pytest.mark.parametrize("family", sorted(DEFAULT_WORDS))
@pytest.mark.parametrize("lam", [None, {1: 1}, {1: 1, 2: 1}])
def test_operators_match_the_sparse_reference(family, lam):
    ctx = make_context(family)
    ops = CrystalOps(ctx, lam)
    closure, _ = generate_closure(ops, 5)
    vectors = sorted(closure, key=repr) + _ambient_vectors(random.Random(20261019), 150)
    assert any(not x.nonnegative() for x in vectors)
    for x in vectors:
        for k in ctx.colors():
            got = {name: getattr(ops, name)(x, k) for name in
                   ("apply_f", "apply_e", "epsilon", "phi", "weight_pairing")}
            assert got == reference_operators(ops, x, k), (x, k)


def test_weight_coeffs_sums_each_color():
    ctx = make_context("A2")  # word 2,1,3
    x = ZVector({1: 2, 2: -1, 4: 5, 6: 1, 8: 3})
    assert CrystalOps(ctx, None).weight_coeffs(x) == (-1 + 3, 2 + 5, 1)


# ----------------------------------------------------------------------------------
# Operator identities on random reachable elements
# ----------------------------------------------------------------------------------


def _random_walk(ops, ctx, rng, steps):
    x = ZVector.ZERO
    for _ in range(steps):
        k = rng.choice(list(ctx.colors()))
        y = ops.apply_f(x, k)
        if y is not None:
            x = y
    return x


@pytest.mark.parametrize("family", ["A1", "A2", "C1", "D2"])
@pytest.mark.parametrize("lam", [None, {1: 1}, {1: 1, 2: 1}])
def test_inverse_pair_property(family, lam):
    ctx = make_context(family)
    ops = CrystalOps(ctx, lam)
    rng = random.Random(20250825)
    for _ in range(60):
        x = _random_walk(ops, ctx, rng, rng.randrange(0, 9))
        assert x.nonnegative() or x.is_zero()
        for k in ctx.colors():
            y = ops.apply_f(x, k)
            if y is not None:
                assert ops.apply_e(y, k) == x
            z = ops.apply_e(x, k)
            if z is not None:
                assert ops.apply_f(z, k) == x


@pytest.mark.parametrize("family", ["A1", "C1"])
def test_axiom_checker_small(family):
    ctx = make_context(family)
    for lam in (None, {1: 1}):
        checks, bad = run_axiom_checks(ctx, lam, 3)
        assert not bad
        assert checks > 0
