"""Cartan data for four affine families and the bookkeeping around embedding words.

Families are identified by short codes over a common color set ``I = {1..n}``:

* ``"A1"`` -- the untwisted cycle family (A-series level-1 affinization),
  ``n >= 2`` colors,
* ``"C1"`` -- the untwisted C-series affinization, ``n >= 3`` colors,
* ``"A2"`` -- the twisted A-series (even superscript-2 type), ``n >= 3``,
* ``"D2"`` -- the twisted D-series, ``n >= 3``.

Besides the Cartan matrices this module provides the periodic *folded color
patterns* used by the diagram/wall combinatorics, the order matrix ``p`` of an
embedding word, and :class:`Context`, which bundles everything needed by the
other modules (position arithmetic, the per-residue pairing table, periodic
shift and wall-slot tables), and ``node_cap()``, the budget every search reads.
"""

from __future__ import annotations

import os
from itertools import accumulate

FAMILIES = ("A1", "C1", "A2", "D2")

DEFAULT_NODE_CAP = 10**6


def node_cap() -> int:
    """The node budget of every search (``CRYSTAL_POLY_NODE_CAP``); ``ValueError``
    unless it is a positive integer."""
    raw = os.environ.get("CRYSTAL_POLY_NODE_CAP")
    if raw is None:
        return DEFAULT_NODE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CRYSTAL_POLY_NODE_CAP must be a positive integer, got {raw!r}")
    return cap


_DUAL = {"A1": "A1", "C1": "D2", "D2": "C1", "A2": "A2"}


def validate_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    low = 2 if family == "A1" else 3
    if n < low:
        raise ValueError(f"family {family} needs at least {low} colors, got n={n}")


def cartan_matrix(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix ``a[i][j] = <h_{i+1}, alpha_{j+1}>`` (0-based storage)."""
    validate_family(family, n)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if family == "A1":
        if n == 2:
            a[0][1] = a[1][0] = -2
        else:
            for i in range(n):
                a[i][(i + 1) % n] = -1
                a[(i + 1) % n][i] = -1
    else:
        for i in range(n - 1):
            a[i][i + 1] = -1
            a[i + 1][i] = -1
        if family == "C1":
            a[1][0] = -2
            a[n - 2][n - 1] = -2
        elif family == "A2":
            a[1][0] = -2
            a[n - 1][n - 2] = -2
        else:  # D2
            a[0][1] = -2
            a[n - 1][n - 2] = -2
    return tuple(tuple(row) for row in a)


def dual_family(family: str) -> str:
    """The family whose combinatorial shapes index this family's inequalities."""
    return _DUAL[family]


def fold_period(family: str, n: int) -> int:
    """Period of the folded color pattern of ``family``."""
    if family == "A1":
        return n
    if family == "C1":
        return 2 * n - 2
    if family == "A2":
        return 2 * n - 1
    return 2 * n  # D2


def fold_color(family: str, n: int, t: int) -> int:
    """Color at slot ``t`` of the periodic folded pattern (defined on all ints).

    The pattern runs ``1, 2, ..., n`` and back down, with family-specific
    behavior at the turning points; for ``A1``, whose period is ``n``, it is
    the plain cycle.
    """
    period = fold_period(family, n)
    m = ((t - 1) % period) + 1
    if m <= n:
        return m
    if family == "D2":
        return 2 * n + 1 - m
    return 2 * n - m  # C1 and A2 share the descent rule


def wall_color(n: int, t: int) -> int:
    """Color of the ``t``-th wall band in the vertical stacking pattern: the
    C1 folded pattern, period ``2n-2``, up ``1..n`` then down ``n-1..2``.
    Only meaningful for the two twisted machineries, where walls exist.
    """
    return fold_color("C1", n, t)


def special_colors(machinery: str, n: int) -> frozenset[int]:
    """Colors whose wall blocks are half-height / whose ladder terms double."""
    if machinery == "A2":
        return frozenset({1})
    if machinery == "D2":
        return frozenset({1, n})
    return frozenset()


def p_matrix(cartan: tuple[tuple[int, ...], ...], word) -> dict[tuple[int, int], int]:
    """Order matrix of an adapted word.

    ``p[(i,j)] = 1`` iff colors i, j are coupled and i occurs before j
    (positions count from the right-hand end of the printed word, i.e. the
    word tuple is position 1 first).  Uncoupled or equal pairs give 0.
    """
    n = len(cartan)
    word = tuple(word)
    first = {c: word.index(c) for c in set(word)}
    p: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and cartan[i - 1][j - 1] < 0:
                p[(i, j)] = 1 if first[i] < first[j] else 0
    return p


class Context:
    """Everything fixed by a (family, n, word) choice.

    Position arithmetic: the infinite word repeats ``word`` (a permutation of
    ``1..n``, so adapted); position ``(s-1)*n + word.index(k) + 1`` carries
    the s-th occurrence of color k.
    """

    def __init__(self, family: str, n: int, word):
        validate_family(family, n)
        self.family = family
        self.n = n
        self.word = tuple(int(c) for c in word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(
                f"word {self.word} must contain each color 1..{n} exactly once"
            )
        self.cartan = cartan_matrix(family, n)
        self.machinery = dual_family(family)
        self.period = n
        self.fold_period = fold_period(self.machinery, n)
        self.specials = special_colors(self.machinery, n)
        self.p = p_matrix(self.cartan, self.word)
        self._first = {c: self.word.index(c) + 1 for c in self.word}
        # Every table below repeats with its pattern's period: one period per
        # color is built here, and nothing grows later.
        fp, wp, colors = self.fold_period, 2 * n - 2, self.colors()
        # <h_k, alpha_c> for the color c at each position residue (p - 1) % n
        self.residue_pairing = {
            k: tuple(self.cartan[k - 1][c - 1] for c in self.word) for k in colors}
        self._fold = tuple(fold_color(self.machinery, n, t) for t in range(1, fp + 1))
        self._up = {k: self._steps(self.fold, k, 1, fp) for k in colors}
        self._down = {k: self._steps(self.fold, k, -1, fp) for k in colors}
        self._wall_up = {k: self._steps(self.wall_fold, k, 1, wp) for k in colors}
        halves = {c: (0, 1) if c in self.specials else (None,) for c in colors}
        self._wall_slots = {
            c: tuple((b, self.wall_fold(b), h) for b in range(c, c + wp)
                     for h in halves[self.wall_fold(b)])
            for c in self.specials
        }

    # ---- position arithmetic -------------------------------------------------
    def colors(self):
        return range(1, self.n + 1)

    def pos_of(self, s: int, k: int) -> int:
        """Position of the s-th occurrence of color k (s >= 1)."""
        return (s - 1) * self.n + self._first[k]

    def first_pos(self, k: int) -> int:
        return self._first[k]

    def color_of(self, pos: int) -> int:
        return self.word[(pos - 1) % self.n]

    def occurrence_of(self, pos: int) -> int:
        return (pos - 1) // self.n + 1

    def sk_of(self, pos: int) -> tuple[int, int]:
        return self.occurrence_of(pos), self.color_of(pos)

    def pairing(self, k: int, c: int) -> int:
        """``<h_k, alpha_c>``."""
        return self.cartan[k - 1][c - 1]

    # ---- folded patterns -----------------------------------------------------
    def fold(self, t: int) -> int:
        return self._fold[(t - 1) % self.fold_period]

    def wall_fold(self, t: int) -> int:
        return wall_color(self.n, t)

    # ---- shift tables ----------------------------------------------------------
    def _steps(self, color_at, k: int, d: int, period: int) -> tuple[int, ...]:
        """Running sums of the order matrix over the first 0..period steps of
        the pattern ``color_at`` away from k in direction d (+1 or -1)."""
        return tuple(accumulate(
            (self.p.get((color_at(k + d * j), color_at(k + d * (j - 1))), 0)
             for j in range(1, period + 1)), initial=0))

    def shift(self, k: int, t: int) -> int:
        """Occurrence shift along the folded pattern, anchored at ``t = k``:
        the sum of ``p[fold(u), fold(u - 1)]`` over ``k < u <= t``, or of
        ``p[fold(u), fold(u + 1)]`` over ``t <= u < k``.  Nonnegative; each
        step adds 0 or 1.
        """
        steps = self._up[k] if t >= k else self._down[k]
        q, r = divmod(abs(t - k), self.fold_period)
        return q * steps[-1] + steps[r]

    def wall_shift(self, k: int, t: int) -> int:
        """Occurrence shift along the wall band pattern; defined for t >= k as
        the sum of ``p[wall_fold(u), wall_fold(u - 1)]`` over ``k < u <= t``."""
        if t < k:
            raise ValueError(f"wall shift undefined below the ground band: {t} < {k}")
        steps = self._wall_up[k]
        q, r = divmod(t - k, len(steps) - 1)
        return q * steps[-1] + steps[r]

    def wall_slot(self, charge: int, i: int) -> tuple[int, int, int | None]:
        """``(band, color, half)`` of slot i of the wall over the special color
        ``charge``, bands climbing from the charge: a special band holds two
        half slots (half 0 below, 1 above), any other band one (half None)."""
        period = self._wall_slots.get(charge)
        if period is None:
            raise ValueError(f"no wall pattern for color {charge} in {self.machinery}")
        q, r = divmod(i, len(period))
        band, color, half = period[r]
        return band + q * (2 * self.n - 2), color, half

    # ---- config --------------------------------------------------------------
    @classmethod
    def from_config(cls, cfg: dict) -> "Context":
        return cls(cfg["family"], int(cfg["n"]), cfg["iota_word"])

    def __repr__(self):
        return f"Context({self.family}, n={self.n}, word={list(self.word)})"


def weight_from_config(cfg: dict) -> dict[int, int]:
    """Dominant weight as ``{color: multiplicity}`` from a config mapping."""
    lam = cfg.get("lambda", {}) or {}
    out = {}
    for key, val in lam.items():
        try:
            k = int(key)
        except ValueError:
            raise ValueError(f"lambda key {key!r} is not an integer color") from None
        if k in out:
            raise ValueError(f"lambda color {k} is given twice")
        out[k] = int(val)
        if out[k] < 0:
            raise ValueError("weight multiplicities must be >= 0")
    return {k: v for k, v in out.items() if v}
