"""Raising/lowering operator actions on sparse integer vectors.

Elements live in the ambient space of almost-zero integer sequences indexed by
word positions.  For a dominant weight the operators implement the tensor rule
with the one-point weight crystal; with no weight (``lam=None``) they realize
the limit crystal where the lowering operators always act.
"""

from __future__ import annotations

import ast
from bisect import bisect_right

from .cartan import Context


class ZVector:
    """Immutable sparse vector: position (>=1) -> nonzero integer entry.

    Entries may be negative (the ambient space allows it); vectors reachable
    from zero by lowering operators stay nonnegative.
    """

    __slots__ = ("_e", "_h")

    def __init__(self, entries=None):
        e = {}
        for p, v in (entries or {}).items():
            p = int(p)
            v = int(v)
            if p < 1:
                raise ValueError(f"positions start at 1, got {p}")
            if v:
                e[p] = v
        self._e = e
        self._h = hash(frozenset(e.items()))

    ZERO: "ZVector"

    @staticmethod
    def from_list(values) -> "ZVector":
        """Entries listed from position 1 upward."""
        return ZVector({p: v for p, v in enumerate(values, start=1)})

    @staticmethod
    def parse(text: str, ctx: Context) -> "ZVector":
        """Parse ``[a1,a2,...]`` (position order) or ``{(s,k): v, ...}``."""
        try:
            obj = ast.literal_eval(text.strip())
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"cannot parse vector from {text!r}") from exc
        if isinstance(obj, (list, tuple)):
            return ZVector.from_list(obj)
        if isinstance(obj, dict):
            out = {}
            for key, v in obj.items():
                if isinstance(key, tuple) and len(key) == 2:
                    s, k = key
                    out[ctx.pos_of(int(s), int(k))] = int(v)
                else:
                    out[int(key)] = int(v)
            return ZVector(out)
        raise ValueError(f"cannot parse vector from {text!r}")

    def get(self, pos: int) -> int:
        return self._e.get(pos, 0)

    def items(self):
        return self._e.items()

    def positions(self):
        return self._e.keys()

    def size(self) -> int:
        return sum(self._e.values())

    def max_pos(self) -> int:
        return max(self._e, default=0)

    def is_zero(self) -> bool:
        return not self._e

    def nonnegative(self) -> bool:
        return all(v > 0 for v in self._e.values())

    def with_delta(self, pos: int, delta: int) -> "ZVector":
        e = dict(self._e)
        v = e.get(pos, 0) + delta
        if v:
            e[pos] = v
        else:
            e.pop(pos, None)
        return ZVector(e)

    def to_sk(self, ctx: Context) -> dict[tuple[int, int], int]:
        return {ctx.sk_of(p): v for p, v in sorted(self._e.items())}

    def to_tuple(self, upto: int) -> tuple[int, ...]:
        return tuple(self._e.get(p, 0) for p in range(1, upto + 1))

    def render(self, ctx: Context) -> str:
        if not self._e:
            return "0"
        parts = [f"({s},{k}):{v}" for (s, k), v in self.to_sk(ctx).items()]
        return "{" + ", ".join(parts) + "}"

    def __eq__(self, other):
        return isinstance(other, ZVector) and self._e == other._e

    def __hash__(self):
        return self._h

    def __repr__(self):
        inside = ", ".join(f"{p}: {v}" for p, v in sorted(self._e.items()))
        return "ZVector({" + inside + "})"


ZVector.ZERO = ZVector()


class CrystalOps:
    """Operator actions for a fixed context and dominant weight.

    ``lam`` is a ``{color: multiplicity}`` dict; ``None`` selects the limit
    crystal (lowering always applicable).
    """

    def __init__(self, ctx: Context, lam: dict[int, int] | None):
        self.ctx = ctx
        self.lam = None if lam is None else {k: v for k, v in lam.items() if v}

    def lam_pairing(self, k: int) -> int:
        return 0 if self.lam is None else self.lam.get(k, 0)

    # ---- signature sums --------------------------------------------------------
    def _profile(self, x: ZVector, k: int):
        """Signature data for color k.

        Returns ``(values, positions, coupling_total)`` where ``positions``
        are the color-k positions up to the first one past the support (the
        sum vanishes from there on, so the scan window is complete) and
        ``values[i]`` is the entry at ``positions[i]`` plus the pairing-weighted
        tail of the support strictly to its right.
        """
        ctx = self.ctx
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

    def _floor(self, k: int, coupling_total: int):
        """Threshold the signature maximum competes with (None = minus infinity)."""
        if self.lam is None:
            return None
        return -self.lam.get(k, 0) + coupling_total

    # ---- crystal structure functions -------------------------------------------
    def epsilon(self, x: ZVector, k: int) -> int:
        values, _, total = self._profile(x, k)
        smax = max(values)
        floor = self._floor(k, total)
        return smax if floor is None else max(smax, floor)

    def weight_pairing(self, x: ZVector, k: int) -> int:
        """``<h_k, wt(x)>``."""
        _, _, total = self._profile(x, k)
        return self.lam_pairing(k) - total

    def phi(self, x: ZVector, k: int) -> int:
        values, _, total = self._profile(x, k)
        smax = max(values)
        floor = self._floor(k, total)
        eps = smax if floor is None else max(smax, floor)
        return eps + self.lam_pairing(k) - total

    def weight_coeffs(self, x: ZVector) -> tuple[int, ...]:
        """Per-color totals; the weight of x is lam minus these along the roots."""
        out = [0] * self.ctx.n
        for p, v in x.items():
            out[self.ctx.color_of(p) - 1] += v
        return tuple(out)

    # ---- operators ---------------------------------------------------------------
    def apply_f(self, x: ZVector, k: int) -> ZVector | None:
        values, positions, total = self._profile(x, k)
        smax = max(values)
        floor = self._floor(k, total)
        if floor is not None and smax <= floor:
            return None
        # lowering acts at the first position achieving the maximum
        return x.with_delta(positions[values.index(smax)], +1)

    def apply_e(self, x: ZVector, k: int) -> ZVector | None:
        values, positions, total = self._profile(x, k)
        smax = max(values)
        if smax <= 0:
            return None
        floor = self._floor(k, total)
        if floor is not None and smax < floor:
            return None
        # raising acts at the last position achieving the maximum
        idx = len(values) - 1 - values[::-1].index(smax)
        return x.with_delta(positions[idx], -1)
