"""Brute-force oracles: closure enumeration, origin reachability, starred
string values by cutoff search, and exhaustive membership cross-checks.

Everything here works purely through the operator model, independently of the
rewriting procedure and of the closed-form families, so agreement between the
two sides is meaningful evidence.
"""

from __future__ import annotations

import time
from itertools import chain
from math import comb
from typing import TYPE_CHECKING

from .cartan import Context, node_cap
from .crystal import CrystalOps, SignatureLanes, ZVector
from .inequalities import ClosureResult, membership_family, node_cap_error

if TYPE_CHECKING:
    import numpy as np

# Most candidates the cross-check may scan: the size of its box, which the sweep
# holds only when no prefix is cut.
MAX_CANDIDATES = 150_000

# --------------------------------------------------------------------------------
# closure enumeration
# --------------------------------------------------------------------------------


def _levels(ops: CrystalOps, depth: int):
    """The operator BFS from the origin: yields ``(layout, level)`` for levels
    0..depth, each level a list of packed states (``SignatureLanes.lower``),
    and stops after the last nonempty level.

    The lanes cover 16 levels, and twice as many each time the search gets
    deeper; the level at hand is then packed afresh from its rows.  Nothing
    is sized by ``depth`` itself.  Raises ``RuntimeError`` before the nodes
    kept over all levels would pass ``node_cap()``.
    """
    cap = node_cap()
    layout = SignatureLanes(ops, min(depth, 16))
    level = [layout.pack(())]
    kept = 1
    for d in range(depth):
        yield layout, level
        if d == layout.levels:
            rows = [*map(layout.row, level)]
            layout = SignatureLanes(ops, min(depth, 2 * d))
            level = [*map(layout.pack, rows)]
        level = layout.lower(level, cap - kept)
        if len(level) > cap - kept:
            raise RuntimeError(
                f"operator BFS hit the node cap of {cap} nodes (CRYSTAL_POLY_NODE_CAP) "
                f"at level {d + 1} of depth {depth}: {cap} nodes kept")
        if not level:
            return
        kept += len(level)
    yield layout, level


def generate_closure(ops: CrystalOps, depth: int):
    """Vectors reachable from the origin by at most ``depth`` lowering steps.

    Returns (set of vectors, levels list).  Each lowering step grows the entry
    sum by exactly one, so level d holds precisely the size-d elements, and a
    child of level d can only repeat another child of level d: each level is
    deduplicated on its own, first reach first.  The list ends at the last
    nonempty level: once a level is empty, so is every later one.

    The search runs on packed states (``crystal.SignatureLanes``: X holds the
    entries one lane per position, S_k the color-k signature lanes, W the
    color totals), so a lowering costs a few C-level calls and one integer
    addition per field; the X lanes of each level become vectors once the
    search ends.  More than ``node_cap()`` nodes is a ``RuntimeError``.
    """
    levels = [[*map(ZVector._make, map(layout.row, level))]
              for layout, level in _levels(ops, depth)]
    return set(chain.from_iterable(levels)), levels


def weight_graded_counts(ops: CrystalOps, depth: int) -> dict[tuple[int, ...], int]:
    """Element counts per per-color entry total (``weight_coeffs``), over the
    depth closure: the W fields of the BFS states, tallied level by level,
    without a vector built."""
    out: dict[tuple[int, ...], int] = {}
    for layout, level in _levels(ops, depth):
        out.update(layout.tally(level))
    return out


# --------------------------------------------------------------------------------
# reachability and starred string values
# --------------------------------------------------------------------------------


def reaches_origin(ops: CrystalOps, x: ZVector) -> bool:
    """Whether repeated raising brings x back to the origin.

    Raising and lowering are mutual partial inverses and raising strictly
    shrinks the entry sum, so this holds exactly when x lies in the image of
    the lowering closure of the origin.  Greedy raising decides it: members
    are closed under raising and the origin is the only member that no
    raising moves, so from a member any raising path ends at the origin,
    while a non-member reaches it by no path at all.  A vector with a
    negative entry is no member.
    """
    colors = ops.ctx.colors()
    while not x.is_zero():
        if not x.nonnegative():
            return False
        for k in colors:
            y = ops.apply_e(x, k)
            if y is not None:
                x = y
                break
        else:
            return False
    return True


def epsilon_star_oracle(ctx: Context, x: ZVector, k: int) -> int:
    """Smallest color-k weight cutoff admitting x, all other colors uncapped.

    The cutoff weight puts m on color k and the entry sum of x on every other
    color; the answer is the least m for which x stays reachable.
    """
    if not x.nonnegative():
        raise ValueError("vector has negative entries")
    total = x.size()
    if not reaches_origin(CrystalOps(ctx, None), x):
        raise ValueError("vector is outside the limit crystal")
    for m in range(total + 1):
        lam = {j: (m if j == k else total) for j in ctx.colors()}
        if reaches_origin(CrystalOps(ctx, lam), x):
            return m
    raise RuntimeError("no admissible cutoff up to the entry sum")


def random_reachable(ops: CrystalOps, rng, depth: int) -> ZVector:
    """A random walk of at most ``depth`` lowering steps from the origin."""
    x = ZVector.ZERO
    for _ in range(depth):
        # each color's child once, in color order: the seeded draws depend on it
        children = [y for y in (ops.apply_f(x, k) for k in ops.ctx.colors()) if y is not None]
        if not children:
            break
        x = rng.choice(children)
    return x


# --------------------------------------------------------------------------------
# exhaustive membership cross-check
# --------------------------------------------------------------------------------


def _compile_matrix(family: ClosureResult, support: int):
    """Dense coefficient matrix of the restrictions to the support box of the
    family's forms, read from its packed rows (``ClosureResult.restriction``)
    without building a form.

    Rows that cannot go negative on nonnegative vectors are dropped, duplicate
    restrictions are merged into the strongest one (the smallest constant), and
    rows are ordered by their last active column, then lexicographically, so
    that short local forms (the strongest rejectors) are applied first.

    Returns ``(coeffs, consts, starts)``: the rows whose value is decided by
    the first j columns, and by no fewer (j = 0 for a constant row), are
    ``starts[j]:starts[j + 1]``.
    """
    import numpy as np  # here, not at module level: only a cross-check pays for it

    blob, consts = family.restriction(support)
    coeffs = np.frombuffer(blob, np.int8).reshape(len(consts), support)
    # a huge weight's constants may not fit int64, nor negate there; clipping
    # them to +-2**62 is exact, since the linear part of a row on a candidate
    # is at most 63 * depth in size and MAX_CANDIDATES keeps the depth below
    # 150,000.  Only a constant past int64 is clipped in Python.
    big = 1 << 62
    try:
        consts = np.array(consts, dtype=np.int64).clip(-big, big)
    except OverflowError:
        consts = np.array([min(max(c, -big), big) for c in consts], dtype=np.int64)
    # a row can go negative only through its constant or a negative coefficient
    keep = (consts < 0) | (coeffs < 0).any(axis=1)
    coeffs, consts = coeffs[keep], consts[keep]
    # columns read: one past the last active column, 0 when none is active
    width = ((coeffs != 0) * np.arange(1, support + 1)).max(axis=1, initial=0)
    # lexsort's primary key is its last row: the columns read, then the
    # columns from the first on
    order = np.lexsort(np.vstack((coeffs[:, ::-1].T, width)))
    coeffs, consts, width = coeffs[order], consts[order], width[order]
    first = np.ones(len(coeffs), dtype=bool)
    first[1:] = (coeffs[1:] != coeffs[:-1]).any(axis=1)
    uniq = np.flatnonzero(first)
    starts = np.searchsorted(width[uniq], np.arange(support + 2))
    return coeffs[uniq].astype(np.int64), np.minimum.reduceat(consts, uniq), starts


def _candidate_matrix(support: int, total: int, *, matrix) -> np.ndarray:
    """Every nonnegative integer vector of length ``support`` with entry sum
    at most ``total`` that satisfies every row of ``matrix`` (as returned by
    ``_compile_matrix``), one per row, in lexicographic order.

    Candidates grow one column at a time.  Right after its last active column
    is filled a row is tested on the partial candidates and cuts those it
    rejects: the columns still to come do not change its value, so no
    completion of a cut prefix is feasible.  Memory follows the prefixes that
    survive, not the whole box.  ``matrix`` is keyword-only because
    ``perfbench/spans.py`` keys each call by its positional arguments.
    """
    import numpy as np  # here, not at module level: only a cross-check pays for it

    coeffs, consts, starts = matrix
    rows = np.zeros((1, 0), dtype=np.int64)
    room = np.array([total], dtype=np.int64)
    for j in range(support + 1):
        lo, hi = starts[j], starts[j + 1]
        if lo < hi:
            ok = (rows @ coeffs[lo:hi, :j].T >= -consts[lo:hi]).all(axis=1)
            rows, room = rows[ok], room[ok]
        if j == support:
            return rows
        # each row splits into one child per value 0..room of the next entry
        counts = room + 1
        parent = np.repeat(np.arange(len(room)), counts)
        value = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        rows = np.column_stack((rows[parent], value))
        room = room[parent] - value


def _feasible_tuples(ctx: Context, lam, depth: int, support: int):
    family, converged = membership_family(ctx, lam, support, 1)
    if not converged:
        raise node_cap_error(ctx, support, 1)
    matrix = _compile_matrix(family, support)
    rows = _candidate_matrix(support, depth, matrix=matrix)
    return set(map(tuple, rows.tolist())), len(matrix[0])


def crosscheck_membership(
    ctx: Context, lam, depth: int, window: int | None = None
) -> dict:
    """Compare the inequality-feasible set against the operator closure.

    Scans every nonnegative vector with entry sum at most ``depth`` supported
    on the first ``window`` positions (default: depth word-lengths, grown if a
    closure element needs more room) in one pass against the membership family
    one word period past the window.  The report keeps ``margin_periods`` (1)
    and ``window_sensitive`` (false) as constant fields.
    """
    t0 = time.perf_counter()
    ops = CrystalOps(ctx, lam)
    closure, _ = generate_closure(ops, depth)
    support = window if window is not None else depth * ctx.n
    support = max(support, max((x.max_pos() for x in closure), default=1))
    closure_set = {x.to_tuple(support) for x in closure}
    candidates = comb(support + depth, depth)
    if candidates > MAX_CANDIDATES:
        raise RuntimeError(
            f"crosscheck needs {candidates} candidates (support {support}, "
            f"depth {depth}), over the limit of {MAX_CANDIDATES}")

    feasible, active_forms = _feasible_tuples(ctx, lam, depth, support)
    mismatches = [
        {"vector": list(t), "side": "feasible_only"}
        for t in sorted(feasible - closure_set)
    ] + [
        {"vector": list(t), "side": "closure_only"}
        for t in sorted(closure_set - feasible)
    ]
    return {
        "family": ctx.family,
        "n": ctx.n,
        "iota_word": list(ctx.word),
        "lambda": None if lam is None else {str(k): v for k, v in sorted(lam.items())},
        "depth": depth,
        "support_positions": support,
        "window": support,
        "margin_periods": 1,
        "active_forms": active_forms,
        "candidates": candidates,
        "feasible": len(feasible),
        "closure": len(closure_set),
        "matched": not mismatches,
        "window_sensitive": False,
        "mismatches": mismatches,
        "seconds": round(time.perf_counter() - t0, 3),
    }

