"""Diagram/wall combinatorics and the closed-form inequality families."""

import ast
import hashlib
import random
import re
from itertools import permutations

import pytest

from crystal_poly import (
    Context,
    ExtendedYoungDiagram,
    LinearForm,
    RevisedEYD,
    YoungWall,
    comb_lambda,
    enumerate_shapes,
    eyd_form,
    limit_inequalities,
    reyd_form,
    wall_form,
)
from crystal_poly import inequalities, shapes
from crystal_poly.shapes import (
    comb_infinity,
    comb_lambda_case,
    ground_shape,
    left_ladder,
    right_ladder,
    shape_children,
    shape_form,
    shape_kind,
)

from util import (
    CHARGE3_DIAGRAMS,
    GRID8,
    LEFT_LADDER_C1_K2,
    REVISED_VALUES,
    RIGHT_LADDER_A1_K1,
    WALL_VALUES,
    full_shape_bfs,
    make_context,
    mk,
    reference_eyd_moves,
    run_move_checks,
    with_undo_moves,
)


# ----------------------------------------------------------------------------------
# One-sided diagrams
# ----------------------------------------------------------------------------------


def test_eyd_validation_and_trimming():
    d = ExtendedYoungDiagram(3, (1, 2, 3, 3))
    assert d.ys == (1, 2)  # charge-level tail implied
    assert d.y(2) == 3 and d.y(99) == 3
    with pytest.raises(ValueError):
        ExtendedYoungDiagram(3, (2, 1))
    with pytest.raises(ValueError):
        ExtendedYoungDiagram(3, (1, 4))


def test_eyd_corners_frozen():
    d = ExtendedYoungDiagram(1, (-3, -2, -1, -1, 0))
    concave, convex = d.corners()
    assert concave == [(0, -3), (1, -2), (2, -1), (4, 0), (5, 1)]
    assert convex == [(1, -3), (2, -2), (4, -1), (5, 0)]
    assert d.boxes() == 12
    ground = ExtendedYoungDiagram(2)
    assert ground.corners() == ([(0, 2)], [])
    assert ground.boxes() == 0


def test_eyd_additions_removals_inverse():
    rng = random.Random(3)
    d = ExtendedYoungDiagram(2)
    for _ in range(40):
        adds = d.additions()
        assert adds, "additions never dry up"
        i, d2 = rng.choice(adds)
        assert d2.boxes() == d.boxes() + 1
        assert (i, d) in d2.removals()
        d = d2
    for i, smaller in d.removals():
        assert (i, d) in smaller.additions()


def test_eyd_moves_match_the_hand_written_conditions():
    count = 0
    for charge in range(1, 5):
        level = {ExtendedYoungDiagram(charge)}
        for _ in range(9):  # the ground and every diagram up to 8 additions away
            nxt = set()
            for d in level:
                corners, adds, rems = reference_eyd_moves(d)
                assert (d.corners(), d.additions(), d.removals()) == (corners, adds, rems)
                nxt.update(t for _, t in adds)
                count += 1
            level = nxt
    assert count == 268


def test_charge3_diagram_forms_frozen():
    ctx = make_context("A1")
    for ys, entries in CHARGE3_DIAGRAMS:
        assert eyd_form(ctx, 3, ExtendedYoungDiagram(3, ys), 0) == mk(ctx, entries)


# ----------------------------------------------------------------------------------
# Two-sided (revised) diagrams
# ----------------------------------------------------------------------------------


def test_reyd_ground_and_deviations():
    t = RevisedEYD(2)
    assert t.boxes() == 0
    assert t.y(-3) == -1 and t.y(0) == 2 and t.y(5) == 2
    u = RevisedEYD(2, {0: 1, 1: 1})
    assert u.boxes() == 2
    assert u.y(0) == 1 and u.y(1) == 1 and u.y(2) == 2


def test_reyd_classification_frozen():
    ctx = make_context("A2")
    t = RevisedEYD(
        2, {-1: -2, 0: -2, 1: -2, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1, 7: 1}
    )
    assert t.boxes() == 21
    assert t.admissible_points(ctx) == [
        (-2, 0, 1, False),
        (-1, -2, 1, False),
        (2, -1, 2, False),
        (4, 1, 1, False),
        (8, 2, 1, True),
    ]
    assert t.removable_points(ctx) == [
        (2, -2, 3, False),
        (4, -1, 1, False),
        (8, 1, 2, False),
    ]


def test_reyd_dec_inc_inverse():
    ctx = make_context("A2")
    rng = random.Random(9)
    for k in (2, 3):
        t = ground_shape(ctx, k)
        for _ in range(30):
            points = t.admissible_points(ctx)
            if not points:
                break
            i, _, _, _ = rng.choice(points)
            t2 = t.dec(ctx, i)
            assert t2 is not None
            back = [j for j, _, _, _ in t2.removable_points(ctx)]
            assert any(t2.inc(ctx, j - 1) == t for j in back)
            t = t2


def test_revised_diagram_forms_frozen():
    ctx = make_context("A2")
    for devs, entries in REVISED_VALUES:
        assert reyd_form(ctx, 3, RevisedEYD(3, devs), 0) == mk(ctx, entries)


def test_revised_diagram_double_points_frozen():
    ctx = make_context("A2")
    shapes = [RevisedEYD(3, devs) for devs, _ in REVISED_VALUES]
    for t in shapes[1:]:
        assert (-2, 1, 1, True) in t.admissible_points(ctx)
    assert (-2, 1, 1, True) not in shapes[0].admissible_points(ctx)
    for t in shapes[2:]:
        assert (2, 3, 1, True) in t.admissible_points(ctx)


# ----------------------------------------------------------------------------------
# Walls
# ----------------------------------------------------------------------------------


def test_wall_pattern_frozen():
    ctx = make_context("A2")
    assert [ctx.wall_slot(1, i) for i in range(8)] == [
        (1, 1, 0),
        (1, 1, 1),
        (2, 2, None),
        (3, 3, None),
        (4, 2, None),
        (5, 1, 0),
        (5, 1, 1),
        (6, 2, None),
    ]
    # c slots are full when slot c - 1 is not a lower half
    assert [ctx.wall_slot(1, c - 1)[2] != 0 for c in range(7)] == [
        True, False, True, True, True, True, False]
    with pytest.raises(ValueError):
        ctx.wall_slot(2, 0)  # only special colors carry wall patterns


def test_wall_validation():
    with pytest.raises(ValueError):
        YoungWall(1, (2, 3))  # must be weakly decreasing
    with pytest.raises(ValueError):
        YoungWall(1, (2, 0))
    w = YoungWall(1, (3, 1, 1))
    assert w.cols == (3,)  # ground columns trimmed
    assert w.col(0) == 3 and w.col(7) == 1
    assert w.blocks() == 2


def test_wall_classification_frozen():
    ctx = make_context("A2")
    w = YoungWall(1, (5, 3, 2))
    assert w.is_proper(ctx)
    assert w.blocks() == 7
    assert w.admissible_slots(ctx) == [(0, 5, 1, True), (1, 3, 3, False)]
    assert w.removable_blocks(ctx) == [(0, 4, 2, False), (2, 1, 1, False)]
    assert w.add(ctx, 2) is None  # would duplicate a full column
    assert w.add(ctx, 3) is None


def test_wall_add_remove_inverse():
    ctx = make_context("A2")
    rng = random.Random(13)
    w = YoungWall(1)
    for _ in range(40):
        slots = [i for i in range(len(w.cols) + 1) if w.add(ctx, i) is not None]
        if not slots:
            break
        i = rng.choice(slots)
        w2 = w.add(ctx, i)
        assert w2.remove(ctx, i) == w
        w = w2


def test_wall_forms_frozen():
    ctx = make_context("A2")
    for cols, entries in WALL_VALUES:
        assert wall_form(ctx, 1, YoungWall(1, cols), 0) == mk(ctx, entries)


# ----------------------------------------------------------------------------------
# Shape dispatch, enumeration, and move identities
# ----------------------------------------------------------------------------------


def test_shape_kind_and_case_dispatch_frozen():
    expected = {
        ("A1", (2, 1, 3)): {1: ("eyd", "right"), 2: ("eyd", "singleton"), 3: ("eyd", "shapes")},
        ("A1", (1, 2, 3)): {1: ("eyd", "singleton"), 2: ("eyd", "left"), 3: ("eyd", "shapes")},
        ("A2", (2, 1, 3)): {1: ("wall", "shapes"), 2: ("reyd", "singleton"), 3: ("reyd", "shapes")},
        ("A2", (3, 2, 1)): {1: ("wall", "shapes"), 2: ("reyd", "right"), 3: ("reyd", "singleton")},
        ("C1", (1, 2, 3)): {1: ("wall", "singleton"), 2: ("reyd", "left"), 3: ("wall", "shapes")},
        ("C1", (3, 2, 1)): {1: ("wall", "shapes"), 2: ("reyd", "right"), 3: ("wall", "singleton")},
        ("D2", (1, 2, 3)): {1: ("eyd", "singleton"), 2: ("eyd", "left"), 3: ("eyd", "shapes")},
        ("D2", (2, 1, 3)): {1: ("eyd", "shapes"), 2: ("eyd", "singleton"), 3: ("eyd", "shapes")},
    }
    from crystal_poly import Context

    for (fam, word), table in expected.items():
        ctx = Context(fam, 3, word)
        got = {k: (shape_kind(ctx, k), comb_lambda_case(ctx, k)) for k in ctx.colors()}
        assert got == table, (fam, word)


# There is no shape cache: every call enumerates afresh, so a repeated call
# gives an equal result, a capped run is never reused, and the node cap is
# read on each call.
def test_enumerate_shapes_cached_and_converged():
    ctx = make_context("A1")
    a = enumerate_shapes(ctx, 3, 0, 9)
    assert enumerate_shapes(ctx, 3, 0, 9) == a
    forms, converged = a
    assert converged
    assert shape_form(ctx, 3, ground_shape(ctx, 3), 0) in forms


def test_enumerate_shapes_never_caches_a_capped_run(monkeypatch):
    ctx = make_context("A1")
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    family, converged = comb_lambda(ctx, {1: 1}, 3, 9)
    assert not converged and len(family) == 4  # the ground's zero form dropped
    monkeypatch.delenv("CRYSTAL_POLY_NODE_CAP")
    family, converged = comb_lambda(ctx, {1: 1}, 3, 9)
    assert converged and len(family) == 53


def test_enumerate_shapes_cache_is_keyed_by_the_node_cap(monkeypatch):
    ctx = make_context("A1")
    forms, converged = enumerate_shapes(ctx, 3, 0, 9)
    assert converged and len(forms) > 5
    monkeypatch.setenv("CRYSTAL_POLY_NODE_CAP", "5")
    forms, converged = enumerate_shapes(ctx, 3, 0, 9)
    assert not converged and len(forms) == 5  # the cap counts the ground's form


# The families pruned at the window against the margin-2 reference: one
# enumeration per (word, color, offset) two word periods past the largest
# window, restricted to each window.  The largest windows are 7 for
# eyd/wall, 4 for reyd and 6 for the limit family, about 2.5 s on one core of
# a 2-vCPU Xeon; the full grid (11, 7 and 9) takes about 19 s.
def test_families_pruned_at_the_window_equal_the_margin_two_reference():
    lam = {1: 1}
    for fam, word in GRID8:
        ctx = Context(fam, 3, word)
        for k in ctx.colors():
            if comb_lambda_case(ctx, k) != "shapes":
                continue
            top = 4 if shape_kind(ctx, k) == "reyd" else 7
            ref, converged = enumerate_shapes(ctx, k, 0, top + 2 * ctx.period)
            assert converged
            for window in range(top + 1):
                want = {LinearForm(lam.get(k, 0)) + f for f in ref
                        if f != LinearForm.ZERO and f.max_pos() <= window}
                got = comb_lambda(ctx, lam, k, window)
                assert got == (frozenset(want), True), (fam, word, k, window)
        bases = set()
        for k in ctx.colors():
            ref, converged = enumerate_shapes(ctx, k, 1, 6 + 2 * ctx.period)
            assert converged
            bases |= ref
        for window in range(7):
            # a nonzero form's last position is at least 1, and a shift adds n
            shifted = {f.shift_periods(ctx.n, d) for f in bases for d in range(window + 1)}
            want = {f for f in shifted if f.max_pos() <= window}
            assert comb_infinity(ctx, window) == (frozenset(want), True), (fam, word, window)


def test_no_move_of_the_margin_two_bfs_lowers_the_last_position(monkeypatch):
    """Every move the shape BFS makes two word periods past window 1, at ranks
    3 (every word) and 4 (four words), every family, color and offset 0 and
    1, keeps or raises the last position of the form: 18,162 moves, about
    2.5 s on one core of a 2-vCPU Xeon."""
    children = shapes.shape_children
    moves = 0
    last = {}  # last position of each shape's form, for the current (ctx, k, s)

    def checked(ctx, shape):
        nonlocal moves
        top = last[shape] if shape in last else shape_form(ctx, k, shape, s).max_pos()
        kids = children(ctx, shape)
        for kid in kids:
            last[kid] = shape_form(ctx, k, kid, s).max_pos()
            assert last[kid] >= top, (ctx.word, k, s, shape, kid)
        moves += len(kids)
        return kids

    monkeypatch.setattr(shapes, "shape_children", checked)
    words = {3: list(permutations((1, 2, 3))),
             4: [(1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 2, 1), (3, 1, 4, 2)]}
    for fam in ("A1", "A2", "C1", "D2"):
        for n, ws in words.items():
            for word in ws:
                ctx = Context(fam, n, word)
                for k in ctx.colors():
                    for s in (0, 1):
                        last.clear()
                        assert enumerate_shapes(ctx, k, s, 1 + 2 * ctx.period)[1]
    assert moves == 18162


def test_a_move_that_lowers_the_last_position_raises(monkeypatch):
    monkeypatch.setattr(shapes, "shape_children", with_undo_moves(shapes.shape_children))
    ctx = make_context("A1")
    with pytest.raises(RuntimeError, match=re.escape(
            "eyd move lowers the last position from 3 to 0 (A1 word [2, 1, 3], color 3, "
            "offset 0, bound 9)")):
        comb_lambda(ctx, {1: 1}, 3, 9)


def test_enumerate_shapes_keeps_every_form_of_the_full_bfs():
    for fam, word in GRID8:
        ctx = Context(fam, 3, word)
        for k in ctx.colors():
            if comb_lambda_case(ctx, k) != "shapes":
                continue
            ground = ground_shape(ctx, k)
            small = 4 if shape_kind(ctx, k) == "reyd" else 7
            for s, window in ((0, small), (1, 6)):
                bound = window + 2 * ctx.n
                forms, converged = enumerate_shapes(ctx, k, s, bound)
                assert converged
                full = full_shape_bfs(ctx, k, s, bound)
                full_forms = [shape_form(ctx, k, sh, s) for sh in full]
                assert forms == set(full_forms), (fam, word, k, s)
                # comb_lambda drops the ground's form, the zero form at offset
                # 0, so no other shape of the full BFS may share it
                ground_form = shape_form(ctx, k, ground, s)
                assert s == 1 or ground_form == LinearForm.ZERO, (fam, word, k)
                assert full_forms.count(ground_form) == 1, (fam, word, k, s)


def test_move_identities_small():
    for fam in ("A1", "A2", "C1", "D2"):
        ok, bad = run_move_checks(make_context(fam), rounds=40, seed=17)
        assert bad == 0
        assert ok >= 100


# ----------------------------------------------------------------------------------
# Ladders
# ----------------------------------------------------------------------------------


def test_right_ladder_frozen():
    ctx = make_context("A1")
    for r, entries in RIGHT_LADDER_A1_K1:
        assert right_ladder(ctx, 1, r) == mk(ctx, entries)


def test_left_ladder_frozen():
    ctx = make_context("C1")
    for r, entries in LEFT_LADDER_C1_K2:
        assert left_ladder(ctx, 2, r) == mk(ctx, entries)


# ----------------------------------------------------------------------------------
# Closed-form families
# ----------------------------------------------------------------------------------


def test_comb_lambda_ladder_and_singleton_frozen():
    ctx = make_context("A1")
    lam = {1: 1, 2: 2, 3: 3}
    fam1, ok1 = comb_lambda(ctx, lam, 1, 11)
    assert ok1
    assert fam1 == frozenset(
        mk(ctx, entries, 1) for _, entries in RIGHT_LADDER_A1_K1
    )
    fam2, ok2 = comb_lambda(ctx, lam, 2, 11)
    assert ok2
    assert fam2 == frozenset({mk(ctx, {(1, 2): -1}, 2)})


def test_comb_lambda_shape_case_contains_diagram_forms():
    ctx = make_context("A1")
    lam = {1: 1, 2: 2, 3: 3}
    fam3, ok3 = comb_lambda(ctx, lam, 3, 6)
    assert ok3
    for ys, entries in CHARGE3_DIAGRAMS:
        assert mk(ctx, entries, 3) in fam3


def test_comb_lambda_left_ladder_frozen():
    ctx = make_context("C1")
    fam, ok = comb_lambda(ctx, {2: 5}, 2, 6)
    assert ok
    expected = {
        mk(ctx, {(1, 1): 2, (1, 2): -1}, 5),
        mk(ctx, {(1, 1): 1, (2, 1): -1}, 5),
        mk(ctx, {(1, 2): 1, (2, 1): -2}, 5),
        mk(ctx, {(1, 3): 2, (2, 2): -1}, 5),
        mk(ctx, {(1, 3): 1, (2, 3): -1}, 5),
        mk(ctx, {(2, 2): 1, (2, 3): -2}, 5),
    }
    assert fam == frozenset(expected)


def test_comb_infinity_matches_rewriting_closure():
    ctx = make_context("A1")
    fam, ok = comb_infinity(ctx, 6)
    assert ok
    clo = limit_inequalities(ctx, 6)
    assert clo.converged
    assert fam == clo.within(6) - {LinearForm.ZERO}


# ----------------------------------------------------------------------------------
# Golden move digest
# ----------------------------------------------------------------------------------

# sha256 over every revised-diagram and wall shape of the full BFS at offset 1
# and bound 4 + 2n, for every non-eyd color of the acceptance grid: the point
# or slot lists, the children, and every single move from 4 indexes before to
# 4 past the profile (rejected moves included).  Recorded before the move rules
# were merged into one legality check per family; a refactor keeps it.
MOVE_DIGEST = "7d15134d29ff92e75828ad8593cac41553a884401bf81e1122d1428f9b59eef6"
MOVE_DIGEST_SHAPES = 1344


def _move_record(ctx, shape):
    if isinstance(shape, RevisedEYD):
        lo, hi = (shape.devs[0][0], shape.devs[-1][0]) if shape.devs else (0, 0)
        idxs = range(lo - 4, hi + 5)
        lists = (shape.admissible_points(ctx), shape.removable_points(ctx))
        moves = [(shape.dec(ctx, i), shape.inc(ctx, i)) for i in idxs]
    else:
        idxs = range(len(shape.cols) + 5)
        lists = (shape.admissible_slots(ctx), shape.removable_blocks(ctx))
        moves = [(shape.add(ctx, i), shape.remove(ctx, i)) for i in idxs]
    return repr((shape, lists, shape_children(ctx, shape), moves))


def test_shape_moves_match_golden_digest():
    h = hashlib.sha256()
    count = 0
    for fam, word in GRID8:
        ctx = Context(fam, 3, word)
        for k in ctx.colors():
            if shape_kind(ctx, k) == "eyd":
                continue
            for shape in sorted(full_shape_bfs(ctx, k, 1, 4 + 2 * ctx.n), key=repr):
                h.update(_move_record(ctx, shape).encode())
                count += 1
    assert count == MOVE_DIGEST_SHAPES
    assert h.hexdigest() == MOVE_DIGEST


# the rank-3 grid and three rank-4 words of each twisted machinery
SCAN_CONTEXTS = [(fam, 3, word) for fam, word in GRID8] + [
    (fam, 4, word) for fam in ("A2", "C1")
    for word in ((1, 2, 3, 4), (2, 1, 4, 3), (4, 3, 2, 1))]


def test_reyd_scan_holds_every_point(monkeypatch):
    shapes_seen = []
    for fam, n, word in SCAN_CONTEXTS:
        ctx = Context(fam, n, word)
        shapes_seen += [(ctx, t) for k in ctx.colors() if shape_kind(ctx, k) == "reyd"
                        for t in full_shape_bfs(ctx, k, 1, 4 + 2 * n)]

    def record(ctx, t):
        return t.admissible_points(ctx), t.removable_points(ctx), shape_children(ctx, t)

    derived = [record(ctx, t) for ctx, t in shapes_seen]
    scan = RevisedEYD._scan
    monkeypatch.setattr(RevisedEYD, "_scan",
                        lambda t: range(scan(t).start - 12, scan(t).stop + 12))
    assert [record(ctx, t) for ctx, t in shapes_seen] == derived
    assert len(shapes_seen) == 2221


def test_reyd_rejects_an_entry_above_ground():
    with pytest.raises(ValueError):
        RevisedEYD(3, {0: 5})
    with pytest.raises(ValueError):
        RevisedEYD(3, {-2: 2})  # ground at -2 is 1
    assert RevisedEYD(3, {-2: 0}).boxes() == 1


def test_wall_refuses_negative_columns():
    ctx = make_context("A2")
    assert YoungWall(1, (3,)).add(ctx, -1) is None
    assert YoungWall(1, (5, 3, 2)).add(ctx, -2) is None
    assert YoungWall(1, (5, 3, 2)).remove(ctx, -1) is None


# ----------------------------------------------------------------------------------
# The generator boundary
# ----------------------------------------------------------------------------------


def _imported_names(module):
    """{module name inside the package or out: names taken from it} over every
    import statement of the module's source, function-level ones included."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.setdefault(alias.name.removeprefix("crystal_poly."), set())
        elif isinstance(node, ast.ImportFrom):
            name = (node.module or "").removeprefix("crystal_poly.")
            if node.level and not node.module:  # from . import a, b
                for alias in node.names:
                    out.setdefault(alias.name, set())
            else:
                out.setdefault(name, set()).update(alias.name for alias in node.names)
    return out


def test_generators_share_only_the_common_types():
    # the shape generator and the rewriting generator share nothing but
    # Context, LinearForm and ZVector, so each can check the other
    assert _imported_names(shapes)["inequalities"] == {"LinearForm"}
    assert not {"shapes", "oracle"} & set(_imported_names(inequalities))
