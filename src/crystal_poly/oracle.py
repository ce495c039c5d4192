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
from struct import pack

from .cartan import Context, node_cap
from .crystal import CrystalOps, SignatureLanes, ZVector
from .inequalities import ClosureResult, membership_family, node_cap_error

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
    """The restrictions to the support box of the family's forms that can go
    negative, as ``(coeffs, consts, starts)``: read from its packed rows in
    one pass, without a sort or a form (``ClosureResult.restriction``)."""
    return family.restriction(support)


def _candidate_matrix(support: int, total: int, *, matrix) -> list[tuple[int, ...]]:
    """Every nonnegative integer vector of length ``support`` with entry sum
    at most ``total`` that satisfies every row of ``matrix`` (as returned by
    ``_compile_matrix``), in lexicographic order.

    Candidates grow one column at a time, with no recursion, and a row cuts
    the prefixes it rejects right after its last active column is filled; a
    prefix with no entry sum left meets every row at once and is finished
    with zeros.  Memory follows the prefixes that survive, not the whole box.
    A prefix carries one int with a ``lane``-byte lane per row: the row's
    value plus half a lane, nonnegative exactly when the lane's top bit is
    set, so one mask tests a group of rows and a column is one int to add.
    With |coefficients| <= ``most``, entry sums <= ``total`` and constants
    clamped to ``[-bound - 1, bound]`` (no sign moves), no lane carries into
    the next.  ``matrix`` is keyword-only: ``perfbench/spans.py`` keys each
    call by its positional arguments.
    """
    coeffs, consts, starts = matrix
    blob, n = b"".join(coeffs), len(consts)
    # signed bytes have |c| <= 128, but one-byte lanes serve when no |c|
    # passes 63 // total
    most = 63 // max(total, 1)
    if blob.translate(None, bytes([*range(most + 1), *range(256 - most, 256)])):
        most = 128
    bound = most * total
    lane, code = next((w, c) for w, c in zip((1, 2, 4, 8), "bhiq")
                      if 2 * bound < 1 << 8 * w - 1)
    if consts and (min(consts) < -bound - 1 or max(consts) > bound):
        consts = [min(max(c, -bound - 1), bound) for c in consts]
    ones = int.from_bytes(b"\1".ljust(lane, b"\0") * n, "little")
    top = (1 << 8 * lane - 1) * ones
    acc = int.from_bytes(pack(f"<{n}{code}", *consts), "little") ^ top
    # below[j]: the top bits of the lanes of the rows before group j
    below = [top & (1 << 8 * lane * s) - 1 for s in starts]
    if acc & below[1] != below[1]:
        return []
    level, out = [(acc, total, ())], []
    for j in range(support):
        s = starts[j + 1]  # the rows before s are zero from column j on
        buf = bytearray(lane * n)
        buf[lane * s::lane] = blob[s * support + j::support]
        col = int.from_bytes(buf, "little")
        col -= (col & 0x80 * ones) << 1  # each lane's byte read as signed
        mask, rest = below[j + 2] ^ below[j + 1], top ^ below[j + 2]
        nxt, zeros = [], (0,) * (support - j - 1)
        for acc, room, pre in level:
            for v in range(room):
                if acc & mask == mask:
                    nxt.append((acc, room - v, pre + (v,)))
                acc += col
            if acc & mask == mask and acc & rest == rest:
                out.append(pre + (room,) + zeros)
        level = nxt
    out += [pre for _, _, pre in level]
    out.sort()
    return out


def _candidates(support: int, depth: int) -> int:
    """The size of the candidate box; ``RuntimeError`` past ``MAX_CANDIDATES``."""
    candidates = comb(support + depth, depth)
    if candidates > MAX_CANDIDATES:
        raise RuntimeError(
            f"crosscheck needs {candidates} candidates (support {support}, "
            f"depth {depth}), over the limit of {MAX_CANDIDATES}")
    return candidates


def _feasible_tuples(ctx: Context, lam, depth: int, support: int):
    family, converged = membership_family(ctx, lam, support, 1)
    if not converged:
        raise node_cap_error(ctx, support, 1)
    matrix = _compile_matrix(family, support)
    return set(_candidate_matrix(support, depth, matrix=matrix)), len(matrix[0])


def crosscheck_membership(
    ctx: Context, lam, depth: int, window: int | None = None
) -> dict:
    """Compare the inequality-feasible set against the operator closure.

    Scans every nonnegative vector with entry sum at most ``depth`` supported
    on the first ``window`` positions (default: depth word-lengths, grown if a
    closure element needs more room) in one pass against the membership family
    one word period past the window.  A box of more than ``MAX_CANDIDATES``
    is refused at the window before the operator closure is generated, and
    at the grown window before any inequality is.  The report keeps
    ``margin_periods`` (1) and ``window_sensitive`` (false) as constant fields.
    """
    t0 = time.perf_counter()
    support = window if window is not None else depth * ctx.n
    _candidates(max(support, 0), depth)
    closure, _ = generate_closure(CrystalOps(ctx, lam), depth)
    support = max(support, max((x.max_pos() for x in closure), default=1))
    closure_set = {x.to_tuple(support) for x in closure}
    candidates = _candidates(support, depth)

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

