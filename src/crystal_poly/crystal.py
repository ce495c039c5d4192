"""Raising/lowering operator actions on sparse integer vectors.

Elements live in the ambient space of almost-zero integer sequences indexed by
word positions.  For a dominant weight the operators implement the tensor rule
with the one-point weight crystal; with no weight (``lam=None``) they realize
the limit crystal where the lowering operators always act.  Every operator and
structure function reads one signature kernel, which works on a vector's dense
row (its entries at positions 1..max_pos).  ``SignatureLanes`` packs the
kernel's values into integer lanes, so that the operator BFS lowers a packed
state with one integer addition per field; those additions are read off the
packing itself, so ``CrystalOps._shifted`` is the one statement of the rule.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from itertools import accumulate, compress, cycle
from operator import add, itemgetter, mul, sub

from .cartan import Context, node_cap


def _dense(entries) -> tuple:
    """The dense row of a ``{position: value}`` mapping (or None): the tuple of
    values at positions 1..max, zeros dropped from the end.  Positions must
    be >= 1."""
    e = {}
    for p, v in (entries or {}).items():
        p, v = int(p), int(v)
        if p < 1:
            raise ValueError(f"positions start at 1, got {p}")
        if v:
            e[p] = v
    row = [0] * max(e, default=0)
    for p, v in e.items():
        row[p - 1] = v
    return tuple(row)


def _plus(row: tuple, pos: int, delta: int) -> tuple:
    """The dense row with ``delta`` (nonzero) added at ``pos`` (>= 1),
    trailing zeros dropped."""
    top = len(row)
    if pos > top:
        return row + (0,) * (pos - top - 1) + (delta,)
    v = row[pos - 1] + delta
    if v or pos < top:
        return row[:pos - 1] + (v,) + row[pos:]
    row = row[:pos - 1]  # the last entry vanished
    while row and not row[-1]:
        row = row[:-1]
    return row


class ZVector:
    """Immutable integer vector on positions 1, 2, ..., almost all entries 0.

    Stored as its dense row: the tuple of entries at positions 1..max_pos(),
    whose last entry is nonzero, so that equal vectors have equal rows.
    Entries may be negative (the ambient space allows it); vectors reachable
    from zero by lowering operators stay nonnegative.
    """

    __slots__ = ("_row",)

    def __init__(self, entries=None):
        self._row = _dense(entries)

    ZERO: "ZVector"

    @staticmethod
    def _make(row: tuple) -> "ZVector":
        """A vector from its dense row, a tuple of ints whose last entry is
        nonzero: nothing is re-checked."""
        res = object.__new__(ZVector)
        res._row = row
        return res

    @staticmethod
    def from_list(values) -> "ZVector":
        """Entries listed from position 1 upward."""
        return ZVector({p: v for p, v in enumerate(values, start=1)})

    @staticmethod
    def parse(text: str, ctx: Context) -> "ZVector":
        """Parse ``[a1,a2,...]`` (position order) or ``{(s,k): v, ...}``
        (keys may also be positions).

        Entries, positions, occurrences ``s`` and colors ``k`` must be
        integers, with ``s >= 1`` and ``k`` in ``1..n``, and no two keys may
        name one position; anything else is a ``ValueError``.  A nonzero entry
        past position ``node_cap()`` is refused before any row is allocated:
        deciding membership of such a vector starts from more variables than
        the cap lets a closure keep.
        """
        import ast  # only the commands that read a vector need it

        def integer(v):
            if type(v) is not int:
                raise ValueError(f"vector entries and keys must be integers or (s,k) "
                                 f"pairs of integers, got {v!r}")
            return v

        try:
            node = ast.parse(text.strip(), mode="eval").body
            obj = ast.literal_eval(node)
        except (ValueError, TypeError, SyntaxError) as exc:
            raise ValueError(f"cannot parse vector from {text!r}") from exc
        if isinstance(obj, (list, tuple)):
            out = {p: integer(v) for p, v in enumerate(obj, 1)}
        elif isinstance(obj, dict):
            out = {}
            # read the pairs off the syntax tree: a dict keeps one of equal keys
            for key_node, value_node in zip(node.keys, node.values):
                key, v = ast.literal_eval(key_node), ast.literal_eval(value_node)
                if isinstance(key, tuple) and len(key) == 2:
                    s, k = map(integer, key)
                    if k not in ctx.colors():
                        raise ValueError(f"vector color {k} must lie in 1..{ctx.n}")
                    if s < 1:
                        raise ValueError(f"vector occurrence {s} must be at least 1")
                    key = ctx.pos_of(s, k)
                if integer(key) in out:
                    raise ValueError(f"vector position {key} is given twice")
                out[key] = integer(v)
        else:
            raise ValueError(f"cannot parse vector from {text!r}")
        top = max((p for p, v in out.items() if v), default=0)
        limit = node_cap()
        if top > limit:
            raise ValueError(f"vector position {top} lies past the limit of {limit} "
                             "positions (the node cap, CRYSTAL_POLY_NODE_CAP)")
        return ZVector(out)

    def get(self, pos: int) -> int:
        row = self._row
        return row[pos - 1] if 0 < pos <= len(row) else 0

    def items(self):
        """(position, entry) of the nonzero entries, by position."""
        return compress(enumerate(self._row, 1), self._row)

    def positions(self):
        return compress(range(1, len(self._row) + 1), self._row)

    def size(self) -> int:
        return sum(self._row)

    def max_pos(self) -> int:
        return len(self._row)

    def is_zero(self) -> bool:
        return not self._row

    def nonnegative(self) -> bool:
        return min(self._row, default=0) >= 0

    def with_delta(self, pos: int, delta: int) -> "ZVector":
        if not delta:
            return self
        if pos < 1:
            raise ValueError(f"positions start at 1, got {pos}")
        return ZVector._make(_plus(self._row, pos, delta))

    def to_sk(self, ctx: Context) -> dict[tuple[int, int], int]:
        return {ctx.sk_of(p): v for p, v in self.items()}

    def to_tuple(self, upto: int) -> tuple[int, ...]:
        return self._row[:upto] + (0,) * (upto - len(self._row))

    def render(self, ctx: Context) -> str:
        if not self._row:
            return "0"
        parts = [f"({s},{k}):{v}" for (s, k), v in self.to_sk(ctx).items()]
        return "{" + ", ".join(parts) + "}"

    def __eq__(self, other):
        return isinstance(other, ZVector) and self._row == other._row

    def __hash__(self):
        return hash(self._row)

    def __repr__(self):
        inside = ", ".join(f"{p}: {v}" for p, v in self.items())
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

    # ---- signature kernel ------------------------------------------------------
    def _shifted(self, row: tuple, k: int):
        """Color-k signature values of a dense row, each minus the total:
        ``(shifted, total)``.

        ``total`` is the pairing-weighted entry sum, ``<h_k, alpha_color(q)>``
        times the entry at q summed over every position q.  The signature value
        at a color-k position p is the entry at p plus that weighted sum over
        the positions right of p, so ``shifted[j]``, at the j-th color-k
        position p, is the entry at p minus the weighted sum over positions
        1..p.  Values are taken at every color-k position up to the first one
        past the row: there the value is 0 (``shifted`` is ``-total``), and it
        stays 0 further out, so the scan is complete.
        """
        ctx = self.ctx
        n, f = ctx.n, ctx.first_pos(k)
        # prefix[p] = weighted sum over positions 1..p
        prefix = [*accumulate(map(mul, row, cycle(ctx.residue_pairing[k])), initial=0)]
        total = prefix[-1]
        return [*map(sub, row[f - 1::n], prefix[f::n]), -total], total

    def _signature(self, row: tuple, k: int, last: bool = False):
        """Color-k signature of a dense row: ``(smax, total, pos)``, from
        ``_shifted``.  ``smax`` is the largest signature value and ``pos``
        the first position attaining it (the last one with ``last``).
        """
        shifted, total = self._shifted(row, k)
        best = max(shifted)
        j = len(shifted) - 1 - shifted[::-1].index(best) if last else shifted.index(best)
        return best + total, total, self.ctx.first_pos(k) + j * self.ctx.n

    def _floor(self, k: int, coupling_total: int):
        """Threshold the signature maximum competes with (None = minus infinity)."""
        if self.lam is None:
            return None
        return -self.lam.get(k, 0) + coupling_total

    # ---- crystal structure functions -------------------------------------------
    def epsilon(self, x: ZVector, k: int) -> int:
        smax, total, _ = self._signature(x._row, k)
        floor = self._floor(k, total)
        return smax if floor is None else max(smax, floor)

    def weight_pairing(self, x: ZVector, k: int) -> int:
        """``<h_k, wt(x)>``."""
        _, total, _ = self._signature(x._row, k)
        return self.lam_pairing(k) - total

    def phi(self, x: ZVector, k: int) -> int:
        return self.epsilon(x, k) + self.weight_pairing(x, k)

    def weight_coeffs(self, x: ZVector) -> tuple[int, ...]:
        """Per-color totals; the weight of x is lam minus these along the roots."""
        n, word = self.ctx.n, self.ctx.word  # word[r]: the color at residue r
        out = [0] * n
        for r, c in enumerate(word):
            out[c - 1] = sum(x._row[r::n])
        return tuple(out)

    # ---- operators ---------------------------------------------------------------
    def _lower(self, row: tuple, k: int) -> tuple | None:
        """f_k on a dense row, None when it gives 0: lowering adds one at the
        first position achieving the signature maximum."""
        smax, total, pos = self._signature(row, k)
        floor = self._floor(k, total)
        if floor is not None and smax <= floor:
            return None
        return _plus(row, pos, 1)

    def apply_f(self, x: ZVector, k: int) -> ZVector | None:
        row = self._lower(x._row, k)
        return None if row is None else ZVector._make(row)

    def apply_e(self, x: ZVector, k: int) -> ZVector | None:
        smax, total, pos = self._signature(x._row, k, last=True)
        if smax <= 0:
            return None
        floor = self._floor(k, total)
        if floor is not None and smax < floor:
            return None
        # raising acts at the last position achieving the maximum
        return x.with_delta(pos, -1)


# array type codes by item size: one lane of a packed field is one item
_LANE_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _pack(values, code: str) -> int:
    """The lanes ``values`` (each in the item range of ``code``), lane 0
    lowest, as one nonnegative int."""
    items = array(code, values)
    if sys.byteorder == "big":
        items.byteswap()
    return int.from_bytes(items.tobytes(), "little")


def _unpack(value: int, count: int, code: str) -> array:
    """The first ``count`` lanes of a packed int (the inverse of ``_pack``)."""
    items = array(code, value.to_bytes(count * array(code).itemsize, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items


class SignatureLanes:
    """The lowering rule on packed states, for the operator BFS.

    A vector reached from the origin in at most ``levels`` lowering steps is
    held as the state ``(X, S_1, ..., S_n, W)`` of Python ints, each a row of
    unsigned lanes of ``width`` bytes, lane 0 lowest:

    * X: lane p - 1 holds the entry at position p; X alone decides equality.
    * S_k: lane j holds ``_shifted(row, k)[j] + bias`` for the j-th color-k
      position, j = 0..levels - 1.  Lanes past the row hold ``-total + bias``,
      the value ``_shifted`` gives the first color-k position past the row.
    * W: lane c - 1 holds the entry total of color c (``weight_coeffs``).

    Bound.  Entries are nonnegative and sum to the level d.  A lane of S_k is
    the entry at p minus the weighted sum over positions 1..p, in which color
    k weighs 2 and every other color weighs 0, -1 or -2 (``|a| <= 2`` off the
    diagonal in all four families).  So the lane lies in [-2d, 2d], both ends
    reached (d lowerings at one color-k position, or at one color-c position
    with ``a(k, c) = -2``), and with ``bias = 2 * levels`` every lane of every
    field lies in [0, 4 * levels].  ``width`` is the fewest bytes (1, 2, 4
    or 8) whose range holds that: one byte up to 63 levels, two up to 16383.
    Deeper searches widen the lanes; they never wrap.

    Lowering from level d < levels acts at a color-k position inside the row
    or at the first one past it; the row ends by position d * n, so that is
    lane d or lower, and ``levels`` lanes suffice.  Among the lanes, the
    first largest is the first position attaining the signature maximum, as
    in ``_signature``; ``steps[k][j]`` is what lowering at lane j of color k
    adds to each field.

    Steps.  Every field of ``pack(row)`` is linear in the row, up to the
    bias: lane j of S_k is the entry at the j-th color-k position minus the
    weighted sum over positions up to it, also past the row, where that is
    ``-total``.  So lowering at position p adds to each field ``pack`` of
    the unit row at p minus ``pack(())``, and ``steps`` holds those
    differences.
    """

    def __init__(self, ops: CrystalOps, levels: int):
        ctx = ops.ctx
        self.ops, self.levels = ops, levels
        self.width = 1
        while 4 * levels >= 256 ** self.width:
            self.width *= 2
        self.code = _LANE_CODES[self.width]
        self.bias = 2 * levels
        origin = self.pack(())
        self.steps = {k: [tuple(map(sub, self.pack((0,) * (p - 1) + (1,)), origin))
                          for p in range(ctx.first_pos(k), levels * ctx.n + 1, ctx.n)]
                      for k in ctx.colors()}

    def pack(self, row: tuple) -> tuple:
        """The state of a dense row at level <= ``levels``."""
        ops, code, levels, bias = self.ops, self.code, self.levels, self.bias
        state = [_pack(row, code)]
        for k in ops.ctx.colors():
            shifted, _ = ops._shifted(row, k)
            lanes = shifted[:levels] + shifted[-1:] * (levels - len(shifted))
            state.append(_pack([v + bias for v in lanes], code))
        state.append(_pack(ops.weight_coeffs(ZVector._make(row)), code))
        return tuple(state)

    def lanes(self, field: int) -> array:
        """The ``levels`` lanes of an S field."""
        return _unpack(field, self.levels, self.code)

    def row(self, state: tuple) -> tuple:
        """The dense row of a state, read off its X field."""
        x = state[0]
        if self.width == 1:
            return tuple(x.to_bytes((x.bit_length() + 7) // 8, "little"))
        return tuple(_unpack(x, -(-x.bit_length() // (8 * self.width)), self.code))

    def tally(self, level) -> dict[tuple[int, ...], int]:
        """How many states of ``level`` have each per-color entry total."""
        n, code = self.ops.ctx.n, self.code
        return {tuple(_unpack(w, n, code)): count
                for w, count in Counter(map(itemgetter(-1), level)).items()}

    def lower(self, level, room: int) -> list:
        """The distinct children of the states of level d < ``levels``, in the
        order the lowerings first reach them, parent by parent and color by
        color; at most ``room + 1`` of them, the search stopping there.

        f_k acts at the first largest S_k lane unless that lane is at most
        ``bias - lam_k``: ``_lower``'s floor test with the total cancelled
        out (the limit crystal has no floor).  The child is the state plus
        the step, field by field.
        """
        ops, count, view = self.ops, self.levels, self.lanes
        narrow = self.width == 1
        plan = [(k, -1 if ops.lam is None else self.bias - ops.lam_pairing(k), self.steps[k])
                for k in ops.ctx.colors()]
        nxt = {}
        for state in level:
            x = state[0]
            for k, cut, steps in plan:
                lane = state[k].to_bytes(count, "little") if narrow else view(state[k])
                best = max(lane)
                if best > cut:
                    step = steps[lane.index(best)]
                    y = x + step[0]
                    if y not in nxt:
                        nxt[y] = tuple(map(add, state, step))
                        if len(nxt) > room:
                            return [*nxt.values()]
        return [*nxt.values()]
