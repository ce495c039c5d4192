"""Shared test helpers: context builders, form builders, frozen reference
series, and reusable randomized checkers.

All expected values in this module are integer-exact reference data: short
series were derived by hand from the coupling rules and cross-checked against
the brute-force operator oracle before being frozen here.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from crystal_poly import (
    Context,
    CrystalOps,
    LinearForm,
    ZVector,
    coupling_form,
    generate_closure,
    rewrite,
    rewrite_plain,
    weight_seed,
)
from crystal_poly.inequalities import node_cap
from crystal_poly.shapes import (
    eyd_form,
    eyd_term_index,
    ground_shape,
    reyd_adm_index,
    reyd_form,
    reyd_rem_index,
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


# ----------------------------------------------------------------------------------
# Reference rewriting closure.
# ----------------------------------------------------------------------------------


def _reference_rewrite_plain(ctx: Context, form: LinearForm, pos: int) -> LinearForm:
    c = form.coeff(pos)
    if c == 0:
        return form
    s, k = ctx.sk_of(pos)
    if c > 0:
        return form - coupling_form(ctx, s, k)
    if s >= 2:
        return form + coupling_form(ctx, s - 1, k)
    return form


def _reference_rewrite(ctx: Context, lam, form: LinearForm, pos: int) -> LinearForm:
    c = form.coeff(pos)
    if c == 0:
        return form
    s, k = ctx.sk_of(pos)
    if c > 0:
        return form - coupling_form(ctx, s, k)
    if s >= 2:
        return form + coupling_form(ctx, s - 1, k)
    return form - weight_seed(ctx, lam, k)


def reference_close(ctx: Context, lam, seeds, bound: int):
    """Reference closure driver: the plain (``lam is None``) or boundary-aware
    step rebuilt at every position of every form with the public
    ``LinearForm`` arithmetic, no step table.  Same BFS order, node cap check
    and pruning count as ``inequalities._close``.  Returns
    (forms, converged, pruned)."""
    if lam is None:
        def step(f, p):
            return _reference_rewrite_plain(ctx, f, p)
    else:
        def step(f, p):
            return _reference_rewrite(ctx, lam, f, p)
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


# The row-by-row matrix compile that oracle._compile_matrix ran before it
# moved to numpy, kept as a reference for it.
def reference_compile_matrix(forms, support: int):
    """Dense coefficient matrix of the forms' restrictions to the support box:
    rows that cannot go negative on nonnegative vectors dropped, duplicate
    restrictions merged into the smallest constant, rows ordered by their
    last active column, then lexicographically."""
    rows = {}
    for f in forms:
        vec = [0] * support
        for p, c in f.terms:
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
    """The candidates of entry sum at most ``depth`` that satisfy every row."""
    cands = reference_candidate_matrix(support, depth)
    alive = np.arange(len(cands))
    for start in range(0, len(coeffs), 2048):
        block, base = coeffs[start:start + 2048], consts[start:start + 2048]
        values = cands[alive] @ block.T + base
        alive = alive[(values >= 0).all(axis=1)]
        if alive.size == 0:
            break
    return {tuple(int(v) for v in cands[i]) for i in alive}


# ----------------------------------------------------------------------------------
# Reusable randomized checkers.
# ----------------------------------------------------------------------------------


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
                    idx, color = reyd_rem_index(ctx, k, s, i, level + 1)
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
                    tally(diff == coupling_form(ctx, idx, color).scaled(-2))
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
            if f.coeff(pos) < 0 and s == 1:
                want = f - weight_seed(ctx, lam, k)
            else:
                want = rewrite_plain(ctx, f - LinearForm(const), pos) + LinearForm(const)
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
