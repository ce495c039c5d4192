"""Acceptance gate.

Each test computes one criterion end to end, prints a single
``[criterion N] PASS/FAIL`` line, and asserts integer-exact agreement (no
tolerances anywhere).  Criteria with runtime budgets assert them explicitly.
"""

import random
import time

from crystal_poly import (
    Context,
    CrystalOps,
    ExtendedYoungDiagram,
    LinearForm,
    RevisedEYD,
    YoungWall,
    ZVector,
    comb_lambda,
    crosscheck_membership,
    epsilon_star_oracle,
    eyd_form,
    limit_inequalities,
    reyd_form,
    wall_form,
)
from crystal_poly.inequalities import (
    boundary_closure_for_color,
    check_ample,
    check_positivity,
    check_strict_positivity,
    epsilon_star_forms,
)
from crystal_poly.oracle import random_reachable
from crystal_poly.shapes import comb_infinity, shape_kind

from util import (
    CHARGE3_DIAGRAMS,
    GRID8,
    REVISED_VALUES,
    RIGHT_LADDER_A1_K1,
    TWISTED_A_SERIES,
    UNTWISTED_SERIES,
    WALL_VALUES,
    instantiate,
    make_context,
    mk,
    run_axiom_checks,
    run_move_checks,
    run_rewrite_relation_checks,
)


def _report(num, fn):
    try:
        detail = fn()
    except BaseException as exc:
        print(f"[criterion {num}] FAIL - {exc}")
        raise
    print(f"[criterion {num}] PASS - {detail}")


# ----------------------------------------------------------------------------------
# Criterion 1: cyclic family at rank 3 (word 2,1,3) reproduces the reference
# display: weight-free series, the full family as a rewriting closure, and the
# weight-dependent ladder/singleton/diagram families.  Budget: 10 seconds.
# ----------------------------------------------------------------------------------


def test_criterion_1_untwisted_families():
    def body():
        t0 = time.perf_counter()
        ctx = make_context("A1")
        window = 9
        fam, conv = comb_infinity(ctx, window)
        assert conv, "family generation hit the node cap"
        inst, count = instantiate(ctx, UNTWISTED_SERIES, window)
        assert len(inst) == count, "series instances collide"
        assert inst <= set(fam), "a listed series instance is missing"
        clo = limit_inequalities(ctx, window)
        assert clo.converged, "rewriting closure hit the node cap"
        assert set(fam) == clo.within(window) - {LinearForm.ZERO}, (
            "closed forms differ from the rewriting closure"
        )
        lam = {1: 1, 2: 2, 3: 3}
        fam1, ok1 = comb_lambda(ctx, lam, 1, 11)
        assert ok1 and fam1 == frozenset(
            mk(ctx, entries, 1) for _, entries in RIGHT_LADDER_A1_K1
        ), "rightward ladder family is off"
        fam2, ok2 = comb_lambda(ctx, lam, 2, 11)
        assert ok2 and fam2 == frozenset({mk(ctx, {(1, 2): -1}, 2)}), (
            "singleton family is off"
        )
        fam3, ok3 = comb_lambda(ctx, lam, 3, 6)
        assert ok3
        for ys, entries in CHARGE3_DIAGRAMS:
            form = eyd_form(ctx, 3, ExtendedYoungDiagram(3, ys), 0)
            assert form == mk(ctx, entries), f"diagram {ys} produced a wrong form"
            assert LinearForm(3) + form in fam3, f"diagram {ys} missing from family"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, f"over budget: {elapsed:.1f}s"
        return (
            f"all {count} series instances inside the {len(fam)}-form family; "
            f"family equals the rewriting closure at window {window}; ladder, "
            f"singleton, and all {len(CHARGE3_DIAGRAMS)} charge-3 diagram forms "
            f"match ({elapsed:.1f}s)"
        )

    _report(1, body)


# ----------------------------------------------------------------------------------
# Criterion 2: twisted-A family at rank 3 (word 2,1,3): the four wall values,
# the four two-sided diagram values, the shift tables, and the color families.
# ----------------------------------------------------------------------------------


def test_criterion_2_twisted_a_families():
    def body():
        ctx = make_context("A2")
        for cols, entries in WALL_VALUES:
            got = wall_form(ctx, 1, YoungWall(1, cols), 0)
            assert got == mk(ctx, entries), f"wall {cols} produced {got.render(ctx)}"
        for devs, entries in REVISED_VALUES:
            got = reyd_form(ctx, 3, RevisedEYD(3, devs), 0)
            assert got == mk(ctx, entries), f"diagram {devs} produced {got.render(ctx)}"
        assert [ctx.wall_shift(1, t) for t in range(1, 5)] == [0, 1, 1, 2]
        assert [ctx.shift(2, t) for t in range(-1, 5)] == [1, 0, 0, 0, 0, 1]
        assert [ctx.shift(3, t) for t in range(1, 6)] == [1, 1, 0, 1, 1]
        window = 6
        fam, conv = comb_infinity(ctx, window)
        assert conv
        inst, count = instantiate(ctx, TWISTED_A_SERIES, window)
        assert len(inst) == count, "series instances collide"
        assert inst <= set(fam), "a listed series instance is missing"
        clo = limit_inequalities(ctx, window)
        assert clo.converged
        assert set(fam) == clo.within(window) - {LinearForm.ZERO}, (
            "closed forms differ from the rewriting closure"
        )
        lam = {1: 4, 2: 5, 3: 6}
        fam1, ok1 = comb_lambda(ctx, lam, 1, window)
        assert ok1 and all(mk(ctx, e, 4) in fam1 for _, e in WALL_VALUES)
        fam2, ok2 = comb_lambda(ctx, lam, 2, window)
        assert ok2 and fam2 == frozenset({mk(ctx, {(1, 2): -1}, 5)})
        fam3, ok3 = comb_lambda(ctx, lam, 3, window)
        assert ok3 and all(mk(ctx, e, 6) in fam3 for _, e in REVISED_VALUES)
        return (
            f"4 wall and 4 two-sided diagram values match; shift tables match; "
            f"{count} series instances inside the {len(fam)}-form family, which "
            f"equals the rewriting closure at window {window}; weighted families "
            f"contain the displayed forms"
        )

    _report(2, body)


# ----------------------------------------------------------------------------------
# Criterion 3: classification examples - corner/move lists of one concrete
# shape of each kind, including doubled points.
# ----------------------------------------------------------------------------------


def test_criterion_3_shape_classification():
    def body():
        d = ExtendedYoungDiagram(1, (-3, -2, -1, -1, 0))
        concave, convex = d.corners()
        assert concave == [(0, -3), (1, -2), (2, -1), (4, 0), (5, 1)]
        assert convex == [(1, -3), (2, -2), (4, -1), (5, 0)]
        assert d.boxes() == 12

        ctx = make_context("A2")
        t = RevisedEYD(
            2, {-1: -2, 0: -2, 1: -2, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1, 7: 1}
        )
        assert t.boxes() == 21
        adm = t.admissible_points(ctx)
        assert adm == [
            (-2, 0, 1, False),
            (-1, -2, 1, False),
            (2, -1, 2, False),
            (4, 1, 1, False),
            (8, 2, 1, True),
        ], adm
        rem = t.removable_points(ctx)
        assert rem == [
            (2, -2, 3, False),
            (4, -1, 1, False),
            (8, 1, 2, False),
        ], rem

        w = YoungWall(1, (5, 3, 2))
        assert w.is_proper(ctx)
        assert w.blocks() == 7
        assert w.admissible_slots(ctx) == [(0, 5, 1, True), (1, 3, 3, False)]
        assert w.removable_blocks(ctx) == [(0, 4, 2, False), (2, 1, 1, False)]
        assert w.add(ctx, 2) is None and w.add(ctx, 3) is None
        return (
            "corner list (5 concave, 4 convex, 12 boxes), two-sided move lists "
            "(5 admissible incl. one double, 3 removable, 21 boxes), and wall "
            "move lists (1 double pair slot, 2 removable, 7 blocks) all match"
        )

    _report(3, body)


# ----------------------------------------------------------------------------------
# Criterion 4: starred string values from the inequality forms agree with the
# brute-force oracle on random reachable vectors.  Budget: 3 seconds.
# ----------------------------------------------------------------------------------


def test_criterion_4_epsilon_star_agreement():
    def body():
        t0 = time.perf_counter()
        a1 = make_context("A1")
        x0 = ZVector.from_list([3, 3, 2, 3, 2, 1])
        frozen = [epsilon_star_forms(a1, x0, k) for k in a1.colors()]
        assert frozen == [1, 3, 0], frozen
        assert frozen == [epsilon_star_oracle(a1, x0, k) for k in a1.colors()]
        checked = {}
        for fam in ("A1", "A2", "C1", "D2"):
            ctx = make_context(fam)
            ops = CrystalOps(ctx, None)
            rng = random.Random(20250825)
            count = 0
            for _ in range(220):
                x = random_reachable(ops, rng, rng.randrange(0, 7))
                for k in ctx.colors():
                    a = epsilon_star_forms(ctx, x, k)
                    b = epsilon_star_oracle(ctx, x, k)
                    assert a == b, (fam, x, k, a, b)
                count += 1
            assert count >= 200
            checked[fam] = count
        elapsed = time.perf_counter() - t0
        assert elapsed < 3, f"over budget: {elapsed:.1f}s"
        total = sum(checked.values())
        return (
            f"forms == oracle for every color on {total} random vectors "
            f"({', '.join(f'{f}: {c}' for f, c in checked.items())}) plus the "
            f"frozen example ({elapsed:.1f}s)"
        )

    _report(4, body)


# ----------------------------------------------------------------------------------
# Criterion 5: exhaustive membership cross-check over the full grid - every
# bounded-sum candidate vector is feasible iff it lies in the operator closure.
# Budget: 20 seconds.
# ----------------------------------------------------------------------------------


def test_criterion_5_membership_crosscheck_grid():
    def body():
        t0 = time.perf_counter()
        runs = []
        for fam, word in GRID8:
            ctx = Context(fam, 3, word)
            for lam in (None, {1: 1}, {1: 1, 2: 1}):
                rep = crosscheck_membership(ctx, lam, 5)
                assert rep["matched"], (fam, word, lam, rep["mismatches"][:3])
                runs.append(rep)
        elapsed = time.perf_counter() - t0
        assert elapsed < 20, f"over budget: {elapsed:.1f}s"
        candidates = sum(r["candidates"] for r in runs)
        return (
            f"{len(runs)}/24 cross-checks matched at depth 5 "
            f"({candidates} candidate vectors) ({elapsed:.1f}s)"
        )

    _report(5, body)


# ----------------------------------------------------------------------------------
# Criterion 6: per-color boundary closures equal the closed-form weighted
# families (plus the trivial form) across the grid.  Budget: 15 seconds.
# ----------------------------------------------------------------------------------


def test_criterion_6_boundary_closures_match_families():
    def body():
        t0 = time.perf_counter()
        combos = 0
        for fam, word in GRID8:
            ctx = Context(fam, 3, word)
            for lam in ({1: 1}, {1: 1, 2: 1}):
                for k in ctx.colors():
                    window = 6 if shape_kind(ctx, k) == "reyd" else 12
                    clo = boundary_closure_for_color(ctx, lam, k, window)
                    assert clo.converged, (fam, word, lam, k)
                    family, conv = comb_lambda(ctx, lam, k, window)
                    assert conv, (fam, word, lam, k)
                    assert clo.within(window) == family | {LinearForm.ZERO}, (
                        fam,
                        word,
                        lam,
                        k,
                    )
                    combos += 1
        assert combos == 48
        elapsed = time.perf_counter() - t0
        assert elapsed < 15, f"over budget: {elapsed:.1f}s"
        return (
            f"closure == closed family for all {combos} (word, weight, color) "
            f"combos ({elapsed:.1f}s)"
        )

    _report(6, body)


# ----------------------------------------------------------------------------------
# Criterion 7: structural invariants - operator axioms, one-box move
# identities, the rewriting relation, and positivity/ampleness.
# ----------------------------------------------------------------------------------


def test_criterion_7_structural_invariants():
    def body():
        axiom_checks = 0
        for fam in ("A1", "A2", "C1", "D2"):
            ctx = make_context(fam)
            for lam in (None, {1: 1}):
                checks, bad = run_axiom_checks(ctx, lam, 5)
                assert not bad, (fam, lam, bad[:3])
                axiom_checks += checks

        move_counts = {}
        for fam in ("A1", "A2", "C1", "D2"):
            ok, bad = run_move_checks(make_context(fam), rounds=150, seed=2026)
            assert bad == 0, fam
            assert ok >= 500, (fam, ok)
            move_counts[fam] = ok

        relation_ok = 0
        for fam, lam in (
            ("A1", {1: 2, 2: 1}),
            ("A2", {}),
            ("C1", {3: 4}),
            ("D2", {1: 1}),
        ):
            ok, bad = run_rewrite_relation_checks(make_context(fam), lam, 300, seed=7)
            assert bad == 0, fam
            relation_ok += ok
        assert relation_ok >= 1000

        # the closures are read whole, past any window: each is closed two
        # periods past 9 (6 for reyd colors)
        for fam, word in GRID8:
            ctx = Context(fam, 3, word)
            clo = limit_inequalities(ctx, 15)
            assert clo.converged and check_positivity(ctx, clo.forms), (fam, word)
            assert check_strict_positivity(ctx, 15), (fam, word)
            for lam in ({1: 1}, {1: 1, 2: 1}):
                for k in ctx.colors():
                    window = 12 if shape_kind(ctx, k) == "reyd" else 15
                    bc = boundary_closure_for_color(ctx, lam, k, window)
                    assert bc.converged and check_ample(bc.forms), (fam, word, lam, k)

        moves = ", ".join(f"{f}: {c}" for f, c in move_counts.items())
        return (
            f"{axiom_checks} operator-axiom checks, one-box move identities "
            f"({moves}), {relation_ok} rewriting-relation checks, and "
            f"positivity/ampleness across the grid all hold"
        )

    _report(7, body)
