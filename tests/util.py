"""Shared test helpers: context builders, form builders, frozen reference
series, and reusable randomized checkers.

All expected values in this module are integer-exact reference data: short
series were derived by hand from the coupling rules and cross-checked against
the brute-force operator oracle before being frozen here.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter

import numpy as np

from crystal_poly import Context, CrystalOps, LinearForm, ZVector, generate_closure
from crystal_poly.inequalities import (
    ClosureResult,
    _bound,
    _close,
    _delta,
    coupling_form,
    node_cap,
    rewrite,
    variable,
    weight_seed,
)
from crystal_poly.shapes import (
    eyd_form,
    ground_shape,
    reyd_form,
    shape_children,
    shape_form,
    shape_kind,
    wall_form,
)

# Default adapted words used throughout the suite, one per family.
DEFAULT_WORDS = {"A1": (2, 1, 3), "A2": (2, 1, 3), "C1": (1, 2, 3), "D2": (1, 2, 3)}

# The full acceptance grid: each family at rank 3 with two adapted words.
GRID8 = [
    ("A1", (2, 1, 3)),
    ("A1", (1, 2, 3)),
    ("A2", (2, 1, 3)),
    ("A2", (3, 2, 1)),
    ("C1", (1, 2, 3)),
    ("C1", (3, 2, 1)),
    ("D2", (1, 2, 3)),
    ("D2", (2, 1, 3)),
]


def make_context(family: str, word=None) -> Context:
    return Context(family, 3, word or DEFAULT_WORDS[family])


def mk(ctx: Context, entries: dict, const: int = 0) -> LinearForm:
    """Build a form from ``{(occurrence, color): coeff}`` entries."""
    terms: dict[int, int] = {}
    for (s, k), c in entries.items():
        p = ctx.pos_of(s, k)
        terms[p] = terms.get(p, 0) + c
    return LinearForm(const, terms)


# ----------------------------------------------------------------------------------
# Frozen weight-free series (family A1 and A2, rank 3, word 2,1,3).  Each entry
# maps the leading occurrence index s >= 1 to the form's (occurrence, color)
# coefficients; the displayed generators repeat with period one occurrence.
# ----------------------------------------------------------------------------------

UNTWISTED_SERIES = [
    lambda s: {(s, 1): 1},
    lambda s: {(s + 1, 2): 1, (s, 3): 1, (s + 1, 1): -1},
    lambda s: {(s + 1, 3): 1, (s, 3): 1, (s + 2, 2): -1},
    lambda s: {(s + 1, 2): 2, (s + 1, 3): -1},
    lambda s: {(s + 1, 2): 1, (s + 1, 1): 1, (s + 2, 2): -1},
    lambda s: {(s + 1, 2): 1, (s + 1, 3): 1, (s + 2, 1): -1},
    lambda s: {(s, 2): 1},
    lambda s: {(s, 1): 1, (s, 3): 1, (s + 1, 2): -1},
    lambda s: {(s, 1): 1, (s + 1, 1): 1, (s + 1, 3): -1},
    lambda s: {(s, 3): 2, (s + 1, 1): -1},
    lambda s: {(s, 3): 1, (s + 1, 2): 1, (s + 1, 3): -1},
    lambda s: {(s, 3): 1, (s + 1, 1): 1, (s + 2, 2): -1},
    lambda s: {(s, 3): 1},
    lambda s: {(s + 1, 1): 1, (s + 1, 2): 1, (s + 1, 3): -1},
    lambda s: {(s + 2, 2): 1, (s + 1, 2): 1, (s + 2, 1): -1},
    lambda s: {(s + 1, 1): 2, (s + 2, 2): -1},
    lambda s: {(s + 1, 1): 1, (s + 1, 3): 1, (s + 2, 1): -1},
    lambda s: {(s + 1, 1): 1, (s + 2, 2): 1, (s + 2, 3): -1},
]

TWISTED_A_SERIES = [
    lambda s: {(s, 2): 1},
    lambda s: {(s, 1): 2, (s, 3): 1, (s + 1, 2): -1},
    lambda s: {(s, 1): 1, (s, 3): 1, (s + 1, 1): -1},
    lambda s: {(s, 1): 1, (s + 1, 2): 2, (s + 1, 3): -1, (s + 1, 1): -1},
    lambda s: {(s, 1): 1, (s + 1, 2): 1, (s + 1, 1): 1, (s + 2, 2): -1},
    lambda s: {(s, 1): 1, (s + 1, 2): 1, (s + 2, 1): -1},
    lambda s: {(s, 3): 1},
    lambda s: {(s + 1, 2): 2, (s + 1, 3): -1},
    lambda s: {(s + 1, 1): 2, (s + 1, 2): 1, (s + 2, 2): -1},
    lambda s: {(s, 1): 1},
    lambda s: {(s + 1, 2): 1, (s + 1, 1): -1},
    lambda s: {(s + 1, 3): 1, (s + 1, 1): 1, (s + 2, 2): -1},
    lambda s: {(s + 1, 3): 1, (s + 2, 1): -1},
    lambda s: {(s + 2, 2): 1, (s + 1, 1): 1, (s + 2, 3): -1},
]


def instantiate(ctx: Context, series, window: int):
    """All series instances whose forms fit inside the window.

    Returns (set of forms, number of generated instances); equal sizes mean
    the instances are pairwise distinct.
    """
    out = set()
    count = 0
    for pat in series:
        for s in range(1, window + 2):
            f = mk(ctx, pat(s))
            if f.max_pos() <= window:
                out.add(f)
                count += 1
    return out, count


# ----------------------------------------------------------------------------------
# Frozen shape/form pairs (rank 3, word 2,1,3).
# ----------------------------------------------------------------------------------

# Charge-3 one-sided diagrams of the cyclic family and their forms.
CHARGE3_DIAGRAMS = [
    ((2,), {(1, 1): 1, (1, 2): 1, (1, 3): -1}),
    ((2, 2), {(2, 2): 1, (1, 2): 1, (2, 1): -1}),
    ((1,), {(1, 1): 2, (2, 2): -1}),
    ((1, 2), {(1, 1): 1, (1, 3): 1, (2, 1): -1}),
    ((1, 1), {(1, 1): 1, (2, 2): 1, (2, 3): -1}),
]

# Charge-1 walls of the twisted A family and their forms.
WALL_VALUES = [
    ((2,), {(1, 2): 1, (1, 1): -1}),
    ((3,), {(1, 3): 1, (1, 1): 1, (2, 2): -1}),
    ((3, 2), {(1, 3): 1, (2, 1): -1}),
    ((4,), {(2, 2): 1, (1, 1): 1, (2, 3): -1}),
]

# Charge-3 two-sided diagrams of the twisted A family and their forms.
REVISED_VALUES = [
    ({0: 2}, {(1, 2): 2, (1, 3): -1}),
    ({-1: 1, 0: 2}, {(1, 1): 2, (1, 2): 1, (2, 2): -1}),
    ({-1: 1, 0: 2, 1: 2}, {(1, 1): 4, (1, 3): 1, (2, 2): -2}),
    ({-1: 1, 0: 1, 1: 2}, {(1, 1): 4, (2, 3): -1}),
]

# Rightward ladder of color 1 (family A1, word 2,1,3), rungs 2..6.
RIGHT_LADDER_A1_K1 = [
    (2, {(1, 2): 1, (1, 1): -1}),
    (3, {(1, 3): 1, (2, 2): -1}),
    (4, {(2, 1): 1, (2, 3): -1}),
    (5, {(3, 2): 1, (3, 1): -1}),
    (6, {(3, 3): 1, (4, 2): -1}),
]

# Leftward ladder of color 2 (family C1, word 1,2,3), rungs 2 down to -2.
LEFT_LADDER_C1_K2 = [
    (2, {(1, 1): 2, (1, 2): -1}),
    (1, {(1, 1): 1, (2, 1): -1}),
    (0, {(1, 2): 1, (2, 1): -2}),
    (-1, {(1, 3): 2, (2, 2): -1}),
    (-2, {(1, 3): 1, (2, 3): -1}),
]


# ----------------------------------------------------------------------------------
# Reference shape enumeration.
# ----------------------------------------------------------------------------------


def full_shape_bfs(ctx: Context, k: int, s: int, bound: int) -> set:
    """Reference enumeration: every shape reachable from the ground by single
    additions whose form at offset ``s`` stays inside the bound (no quotient
    by form, no cache, no node cap)."""
    ground = ground_shape(ctx, k)
    seen = {ground}
    queue = deque([ground])
    while queue:
        shape = queue.popleft()
        for child in shape_children(ctx, shape):
            if child in seen or shape_form(ctx, k, child, s).max_pos() > bound:
                continue
            seen.add(child)
            queue.append(child)
    return seen


def reference_eyd_moves(d):
    """(corners, additions, removals) of the diagram ``d`` by the three
    hand-written conditions the diagram class once stated separately: a
    convex/concave pair wherever the profile steps up, an addition at column
    0 or wherever the column before stays at or under the lowered level, a
    removal wherever the raised level stays at or under the next column."""
    concave, convex = [(0, d.y(0))], []
    for r in range(len(d.ys)):
        if d.y(r) < d.y(r + 1):
            convex.append((r + 1, d.y(r)))
            concave.append((r + 1, d.y(r + 1)))

    def moved(i, v):
        ys = list(d.ys) + [d.charge] * (i + 1 - len(d.ys))
        ys[i] = v
        return type(d)(d.charge, ys)

    adds = [(i, moved(i, d.y(i) - 1)) for i in range(len(d.ys) + 1)
            if i == 0 or d.y(i - 1) <= d.y(i) - 1]
    rems = [(i, moved(i, d.ys[i] + 1)) for i in range(len(d.ys))
            if d.ys[i] + 1 <= d.y(i + 1)]
    return (concave, convex), adds, rems


def with_undo_moves(surveyor):
    """``surveyor`` (a ``shapes._survey``) with, from every nonground shape,
    one more move: back to the ground of its family.  At offset 0 that move
    lowers the last position of the form to 0, which the shape enumeration
    must refuse."""
    def undo_survey(ctx: Context, k: int, s: int, kind: str):
        survey = surveyor(ctx, k, s, kind)

        def moves(shape):
            form, kids = survey(shape)
            ground = type(shape)(shape.charge)
            return form, kids if shape == ground else [*kids, ground]
        return moves
    return undo_survey


def eyd_term_index(ctx: Context, k: int, s: int, i: int, j: int) -> tuple[int, int]:
    """(occurrence index, color) of the form term attached to corner (i, j)."""
    return s + ctx.shift(k, i + j) + min(k - j, i), ctx.fold(i + j)


def reyd_adm_index(ctx: Context, k: int, s: int, i: int, level: int) -> tuple[int, int]:
    """(occurrence index, color) of the form term of the point at entry i."""
    return s + ctx.shift(k, i + k) + min(i, 0) + k - level, ctx.fold(i + k)


# ----------------------------------------------------------------------------------
# Reference rewriting closure.
# ----------------------------------------------------------------------------------


def _reference_plain_rewrite(ctx: Context, coupling, form: LinearForm, pos: int) -> LinearForm:
    c = form.get(pos)
    if c == 0:
        return form
    s, k = ctx.sk_of(pos)
    if c > 0:
        return form - coupling(s, k)
    if s >= 2:
        return form + coupling(s - 1, k)
    return form


def _reference_rewrite(ctx: Context, coupling, lam, form: LinearForm, pos: int) -> LinearForm:
    c = form.get(pos)
    if c == 0:
        return form
    s, k = ctx.sk_of(pos)
    if c > 0:
        return form - coupling(s, k)
    if s >= 2:
        return form + coupling(s - 1, k)
    return form - weight_seed(ctx, lam, k)


def reference_close(ctx: Context, lam, seeds, bound: int):
    """Reference closure driver: the plain (``lam is None``) or boundary-aware
    step rebuilt at every position of every form with the public
    ``LinearForm`` arithmetic, no step table; only ``coupling_form`` is
    memoised, by (s, k).  Same BFS order, node cap check and pruning count
    as ``inequalities._close``.  Returns (forms, converged, pruned)."""
    coupling = lru_cache(maxsize=None)(partial(coupling_form, ctx))
    if lam is None:
        def step(f, p):
            return _reference_plain_rewrite(ctx, coupling, f, p)
    else:
        def step(f, p):
            return _reference_rewrite(ctx, coupling, lam, f, p)
    cap = node_cap()
    seen = set(seeds)
    queue = deque(seen)
    pruned = 0
    converged = True
    while queue:
        form = queue.popleft()
        for pos in form.positions():
            new = step(form, pos)
            if new == form or new in seen:
                continue
            if new.max_pos() > bound:
                pruned += 1
                continue
            if len(seen) >= cap:
                converged = False
                queue.clear()
                break
            seen.add(new)
            queue.append(new)
    return frozenset(seen), converged, pruned


# The joint-seed closure that inequalities.weight_inequalities ran before it
# read membership_family, kept as a reference for it.
def reference_weight_closure(ctx: Context, lam, window: int) -> ClosureResult:
    """Closure of the variables plus every color's weight seed under the
    boundary-aware step, at the entry points' bound."""
    bound = _bound(ctx, window)
    seeds = [variable(p) for p in range(1, bound + 1)]
    seeds += [weight_seed(ctx, lam, k) for k in ctx.colors()]
    return _close(seeds, _delta(ctx, lam), bound)


# The row-by-row matrix compile that the crosscheck ran before it moved to
# numpy, kept as a reference for ClosureResult.restriction.
def reference_compile_matrix(forms, support: int):
    """Dense coefficient matrix of the forms' restrictions to the support box:
    rows that cannot go negative on nonnegative vectors dropped, duplicate
    restrictions merged into the smallest constant, rows ordered by their
    last active column, then lexicographically."""
    rows = {}
    for f in forms:
        vec = [0] * support
        for p, c in f.items():
            if p <= support:
                vec[p - 1] = c
        if f.constant >= 0 and all(c >= 0 for c in vec):
            continue
        vec = tuple(vec)
        rows[vec] = min(f.constant, rows.get(vec, f.constant))
    ordered = sorted(
        rows.items(),
        key=lambda it: (max((i for i, c in enumerate(it[0]) if c), default=0), it),
    )
    coeffs = np.array([vec for vec, _ in ordered], dtype=np.int64)
    consts = np.array([const for _, const in ordered], dtype=np.int64)
    return coeffs, consts


# The numpy compile that the crosscheck ran on forms before it read the
# closures' packed rows (ClosureResult.restriction), kept as a reference for it.
def fromiter_compile_matrix(forms, support: int):
    forms = list(forms)
    pad = (0,) * support
    coeffs = np.fromiter(chain.from_iterable((f._row + pad)[:support] for f in forms),
                         np.int64, len(forms) * support).reshape(len(forms), support)
    consts = np.fromiter(map(attrgetter("constant"), forms), np.int64, len(forms))
    del forms
    keep = (consts < 0) | (coeffs < 0).any(axis=1)
    coeffs, consts = coeffs[keep], consts[keep]
    width = ((coeffs != 0) * np.arange(1, support + 1)).max(axis=1, initial=0)
    order = np.lexsort(np.vstack((coeffs[:, ::-1].T, width)))
    coeffs, consts, width = coeffs[order], consts[order], width[order]
    first = np.ones(len(coeffs), dtype=bool)
    first[1:] = (coeffs[1:] != coeffs[:-1]).any(axis=1)
    uniq = np.flatnonzero(first)
    starts = np.searchsorted(width[uniq], np.arange(support + 2))
    return coeffs[uniq], np.minimum.reduceat(consts, uniq), starts


def packed_closure(forms) -> ClosureResult:
    """A converged closure result whose rows are exactly ``forms``, packed
    as ``_close`` packs its rows: byte ``p - 1`` holds the coefficient at
    ``p`` plus 128, and the constant sits above the last position's byte."""
    forms = set(forms)
    width = max([0] + [f.max_pos() for f in forms])
    rows = {(f.constant << 8 * width)
            + sum((f.get(p) + 128) << 8 * (p - 1) for p in range(1, width + 1))
            for f in forms}
    return ClosureResult(rows, width, True, 0)


def unpack_row(row: int, width: int) -> LinearForm:
    """The form of one packed row of ``width`` coefficient bytes, read byte
    by byte (the inverse of ``packed_closure``'s packing)."""
    return LinearForm(row >> 8 * width,
                      {p: ((row >> 8 * (p - 1)) & 255) - 128 for p in range(1, width + 1)})


# The form-by-form test that inequalities.membership ran before it read f(x)
# off the packed rows, kept as a reference for it.
def reference_membership(forms, x: ZVector) -> tuple[bool, LinearForm | None]:
    violated = [form for form in forms if form.evaluate(x) < 0]
    if not violated:
        return True, None
    return False, min(violated, key=LinearForm.sort_key)


def signed_rows(matrix) -> list[tuple[tuple[int, ...], int]]:
    """The rows of a compiled matrix (``ClosureResult.restriction``) as
    (coefficient tuple, constant) pairs, in its row order."""
    coeffs, consts, _ = matrix
    return [(tuple(memoryview(c).cast("b")), k) for c, k in zip(coeffs, consts)]


def canonical_rows(matrix) -> list[tuple[tuple[int, ...], int]]:
    """``signed_rows`` sorted within each group of ``starts``: the order the
    numpy compiles gave, by last active column, then lexicographically."""
    rows, starts = signed_rows(matrix), matrix[2]
    return [row for lo, hi in zip(starts, starts[1:]) for row in sorted(rows[lo:hi])]


def compile_forms(forms, support: int):
    """``ClosureResult.restriction`` on one closure holding exactly ``forms``,
    checked against the construction from forms that it replaced: the same
    groups, each with the same rows and constants in some order.  That
    construction holds constants in int64; past it, nothing is compared."""
    forms = list(forms)
    got = packed_closure(forms).restriction(support)
    if any(not -2**63 <= f.constant < 2**63 for f in forms):
        return got  # the reference holds constants in int64
    coeffs, consts, starts = fromiter_compile_matrix(forms, support)
    assert list(got[2]) == starts.tolist()
    assert all(len(c) == support for c in got[0]) and len(got[0]) == len(got[1])
    assert canonical_rows(got) == [*zip(map(tuple, coeffs.tolist()), consts.tolist())]
    return got


# The candidate box and 2048-row block sweep that oracle._feasible_tuples ran
# before the sweep cut partial candidates by prefix, kept as a reference for it.
def reference_candidate_matrix(support: int, total: int) -> np.ndarray:
    """Every nonnegative integer vector of length ``support`` with entry sum
    at most ``total``, one per row, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    room = np.array([total], dtype=np.int64)
    for _ in range(support):
        # each row splits into one child per value 0..room of the next entry
        counts = room + 1
        parent = np.repeat(np.arange(len(room)), counts)
        value = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        rows = np.column_stack((rows[parent], value))
        room = room[parent] - value
    return rows


def reference_feasible(coeffs, consts, support: int, depth: int) -> set:
    """The candidates of entry sum at most ``depth`` that satisfy every row;
    ``coeffs`` holds one string of ``support`` signed bytes per row, as
    ``ClosureResult.restriction`` gives them.  Constants are clipped to
    +-2**62 to fit int64, which decides every candidate alike while the
    linear parts stay far below it."""
    coeffs = np.frombuffer(b"".join(coeffs), np.int8).reshape(len(consts), support)
    coeffs = coeffs.astype(np.int64)
    consts = np.array([min(max(c, -2**62), 2**62) for c in consts], dtype=np.int64)
    cands = reference_candidate_matrix(support, depth)
    alive = np.arange(len(cands))
    for start in range(0, len(coeffs), 2048):
        block, base = coeffs[start:start + 2048], consts[start:start + 2048]
        values = cands[alive] @ block.T + base
        alive = alive[(values >= 0).all(axis=1)]
        if alive.size == 0:
            break
    return {tuple(int(v) for v in cands[i]) for i in alive}


# The dense-row BFS that oracle.generate_closure ran before it moved to
# packed signature lanes, kept as a reference for it.
def reference_closure(ops: CrystalOps, depth: int):
    """(set of vectors, levels list) reachable from the origin in at most
    ``depth`` lowerings, one ``_lower`` call per node and color, each level
    deduplicated on its own in first-reach order; all ``depth + 1`` levels
    are listed, empty ones included."""
    colors = ops.ctx.colors()
    lower = ops._lower
    level = [()]
    levels = [level]
    for _ in range(depth):
        seen, nxt = set(), []
        for row in level:
            for k in colors:
                y = lower(row, k)
                if y is not None and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        levels.append(nxt)
        level = nxt
    for level in levels:
        level[:] = map(ZVector._make, level)
    return set(chain.from_iterable(levels)), levels


# The Cartan-matrix step table crystal.SignatureLanes built before it read
# its steps off its own packing, kept as a reference for it.
def reference_steps(ctx: Context, levels: int, width: int) -> dict:
    """``steps[k][j]``: what lowering at the j-th color-k position adds to
    each field of a packed state with ``levels`` lanes of ``width`` bytes:
    one to the entry lane, ``-a(m, c)`` to every color-m lane at or after
    the position (color c) plus one to the lane at it, one to the color-c
    total."""
    n, first = ctx.n, ctx.first_pos
    bits = 8 * width
    # tail[j]: one in every lane from j on
    tail = [0] * (levels + 1)
    for j in range(levels - 1, -1, -1):
        tail[j] = tail[j + 1] + (1 << bits * j)

    def step(pos):
        c = ctx.color_of(pos)
        fields = [1 << bits * (pos - 1)]
        for m in ctx.colors():
            # the color-m lanes at or after pos: their prefix gains a(m, c)
            j = -(-(pos - first(m)) // n)
            fields.append(-ctx.cartan[m - 1][c - 1] * tail[j] + (m == c) * (1 << bits * j))
        fields.append(1 << bits * (c - 1))
        return tuple(fields)

    return {k: [step(first(k) + j * n) for j in range(levels)] for k in ctx.colors()}


# ----------------------------------------------------------------------------------
# Reusable randomized checkers.
# ----------------------------------------------------------------------------------


# The sparse signature scan CrystalOps ran before its dense-row kernel, kept
# as the reference for it.
def reference_profile(ops: CrystalOps, x: ZVector, k: int):
    """Signature data for color k.

    Returns ``(values, positions, coupling_total)`` where ``positions``
    are the color-k positions up to the first one past the support (the
    sum vanishes from there on, so the scan window is complete) and
    ``values[i]`` is the entry at ``positions[i]`` plus the pairing-weighted
    tail of the support strictly to its right.
    """
    ctx = ops.ctx
    sup = sorted(x.items())
    pairrow = ctx.cartan[k - 1]
    # suffix[i] = sum of <h_k, alpha_color(q)> * x_q over support index >= i
    suffix = [0] * (len(sup) + 1)
    for i in range(len(sup) - 1, -1, -1):
        p, v = sup[i]
        suffix[i] = suffix[i + 1] + pairrow[ctx.color_of(p) - 1] * v
    sup_pos = [p for p, _ in sup]
    top = sup_pos[-1] if sup_pos else 0
    positions = []
    p = ctx.first_pos(k)
    while True:
        positions.append(p)
        if p > top:
            break
        p += ctx.period
    values = []
    for p in positions:
        j = bisect_right(sup_pos, p)
        values.append(x.get(p) + suffix[j])
    return values, positions, suffix[0]


def _moved(x: ZVector, pos: int, delta: int) -> ZVector:
    """x with delta added at pos, through the checked constructor."""
    entries = dict(x.items())
    entries[pos] = entries.get(pos, 0) + delta
    return ZVector(entries)


def reference_operators(ops: CrystalOps, x: ZVector, k: int) -> dict:
    """``apply_f``, ``apply_e``, ``epsilon``, ``phi`` and ``weight_pairing``
    of x at color k, each computed from ``reference_profile`` by the rules
    CrystalOps applied to it."""
    values, positions, total = reference_profile(ops, x, k)
    smax = max(values)
    lam_k = ops.lam_pairing(k)
    floor = None if ops.lam is None else -lam_k + total
    eps = smax if floor is None else max(smax, floor)
    lowered = None
    if floor is None or smax > floor:
        # lowering acts at the first position achieving the maximum
        lowered = _moved(x, positions[values.index(smax)], +1)
    raised = None
    if smax > 0 and (floor is None or smax >= floor):
        # raising acts at the last position achieving the maximum
        idx = len(values) - 1 - values[::-1].index(smax)
        raised = _moved(x, positions[idx], -1)
    return {"apply_f": lowered, "apply_e": raised, "epsilon": eps,
            "phi": eps + lam_k - total, "weight_pairing": lam_k - total}


# The depth-first search over every raising path that reaches_origin ran
# before greedy raising, kept as a reference for it.
def reference_reaches_origin(ops: CrystalOps, x: ZVector, memo: dict | None = None) -> bool:
    """Whether repeated raising brings x back to the origin.

    Raising and lowering are mutual partial inverses and raising strictly
    shrinks the entry sum, so this holds exactly when x lies in the image of
    the lowering closure of the origin.  Vectors with a negative entry can
    never reach the origin and are pruned.
    """
    if memo is None:
        memo = {}
    colors = ops.ctx.colors()

    def rec(v: ZVector) -> bool:
        if v.is_zero():
            return True
        hit = memo.get(v)
        if hit is not None:
            return hit
        ok = False
        for k in colors:
            w = ops.apply_e(v, k)
            if w is not None and w.nonnegative() and rec(w):
                ok = True
                break
        memo[v] = ok
        return ok

    return rec(x)


def random_shape(ctx, k, rng, max_steps=6):
    sh = ground_shape(ctx, k)
    for _ in range(rng.randrange(0, max_steps + 1)):
        kids = shape_children(ctx, sh)
        if not kids:
            break
        sh = rng.choice(kids)
    return sh


def run_move_checks(ctx: Context, rounds: int, seed: int):
    """Verify the one-box move identity on random shapes of every color.

    Each legal single move must change the shape's form by exactly one
    coupling form at the move's index; double wall moves (a half-block pair)
    must compose to twice that.  Returns (ok, bad) counts.
    """
    rng = random.Random(seed)
    ok = bad = 0

    def tally(condition):
        nonlocal ok, bad
        if condition:
            ok += 1
        else:
            bad += 1

    for k in ctx.colors():
        kind = shape_kind(ctx, k)
        for _ in range(rounds):
            sh = random_shape(ctx, k, rng)
            s = rng.choice((1, 2))
            if kind == "eyd":
                base = eyd_form(ctx, k, sh, s)
                for i, sh2 in sh.additions():
                    idx, color = eyd_term_index(ctx, k, s, i, sh.y(i))
                    if idx < 1:
                        continue
                    diff = eyd_form(ctx, k, sh2, s) - base
                    tally(diff == -coupling_form(ctx, idx, color))
                for i, sh2 in sh.removals():
                    idx, color = eyd_term_index(ctx, k, s, i, sh2.y(i))
                    if idx < 1:
                        continue
                    diff = eyd_form(ctx, k, sh2, s) - base
                    tally(diff == coupling_form(ctx, idx, color))
            elif kind == "reyd":
                base = reyd_form(ctx, k, sh, s)
                for i, level, _color, _dbl in sh.admissible_points(ctx):
                    sh2 = sh.dec(ctx, i)
                    idx, color = reyd_adm_index(ctx, k, s, i, level)
                    if idx < 1:
                        continue
                    diff = reyd_form(ctx, k, sh2, s) - base
                    tally(diff == -coupling_form(ctx, idx, color))
                for i, level, _color, _dbl in sh.removable_points(ctx):
                    sh2 = sh.inc(ctx, i - 1)
                    # the restored entry sits one above the recorded level
                    idx, color = reyd_adm_index(ctx, k, s, i - 1, level + 1)
                    if idx < 1:
                        continue
                    diff = reyd_form(ctx, k, sh2, s) - base
                    tally(diff == coupling_form(ctx, idx, color))
            else:
                base = wall_form(ctx, k, sh, s)
                for i in range(len(sh.cols) + 1):
                    sh2 = sh.add(ctx, i)
                    if sh2 is None:
                        continue
                    band, color, _half = ctx.wall_slot(k, sh.col(i))
                    idx = s + ctx.wall_shift(k, band) + i
                    if idx < 1:
                        continue
                    diff = wall_form(ctx, k, sh2, s) - base
                    tally(diff == -coupling_form(ctx, idx, color))
                for i in range(len(sh.cols)):
                    sh2 = sh.remove(ctx, i)
                    if sh2 is None:
                        continue
                    band, color, _half = ctx.wall_slot(k, sh.col(i) - 1)
                    idx = s + ctx.wall_shift(k, band) + i
                    if idx < 1:
                        continue
                    diff = wall_form(ctx, k, sh2, s) - base
                    tally(diff == coupling_form(ctx, idx, color))
                # pair moves at double slots compose two single moves
                for i, band, color, dbl in sh.admissible_slots(ctx):
                    if not dbl:
                        continue
                    sh2 = sh.add(ctx, i).add(ctx, i)
                    idx = s + ctx.wall_shift(k, band) + i
                    if idx < 1:
                        continue
                    diff = wall_form(ctx, k, sh2, s) - base
                    step = coupling_form(ctx, idx, color)
                    tally(diff == -(step + step))
    return ok, bad


def run_rewrite_relation_checks(ctx: Context, lam: dict, rounds: int, seed: int):
    """Verify the boundary rewriting step against the plain one.

    Off the boundary case (negative coefficient at a first occurrence) the two
    steps agree after stripping the constant; on it, the boundary step
    subtracts the color's weight seed.  Returns (ok, bad).
    """
    rng = random.Random(seed)
    ok = bad = 0
    for _ in range(rounds):
        terms = {
            rng.randrange(1, 10): rng.choice((-3, -2, -1, 1, 2, 3))
            for _ in range(rng.randrange(1, 5))
        }
        const = rng.randrange(-2, 3)
        f = LinearForm(const, terms)
        for pos in f.positions():
            s, k = ctx.sk_of(pos)
            got = rewrite(ctx, lam, f, pos)
            if f.get(pos) < 0 and s == 1:
                want = f - weight_seed(ctx, lam, k)
            else:
                want = rewrite(ctx, None, f - LinearForm(const), pos) + LinearForm(const)
            if got == want:
                ok += 1
            else:
                bad += 1
    return ok, bad


def run_axiom_checks(ctx: Context, lam, depth: int):
    """Structural operator identities over the full depth-bounded closure.

    Returns (number of (element, color) pairs checked, list of failures).
    """
    ops = CrystalOps(ctx, lam)
    closure, _ = generate_closure(ops, depth)
    checks = 0
    bad = []
    for x in closure:
        for k in ctx.colors():
            checks += 1
            eps = ops.epsilon(x, k)
            phi = ops.phi(x, k)
            wt = ops.weight_pairing(x, k)
            if phi != eps + wt:
                bad.append(("phi-eps-weight", x, k))
            y = ops.apply_f(x, k)
            if lam is None:
                if y is None:
                    bad.append(("lowering-total", x, k))
            else:
                if (y is None) != (phi <= 0):
                    bad.append(("lowering-domain", x, k))
            if y is not None:
                if ops.epsilon(y, k) != eps + 1:
                    bad.append(("eps-step", x, k))
                if ops.phi(y, k) != phi - 1:
                    bad.append(("phi-step", x, k))
                if ops.weight_pairing(y, k) != wt - 2:
                    bad.append(("weight-step", x, k))
                if ops.apply_e(y, k) != x:
                    bad.append(("raise-after-lower", x, k))
            z = ops.apply_e(x, k)
            if z is not None and ops.apply_f(z, k) != x:
                bad.append(("lower-after-raise", x, k))
    return checks, bad
