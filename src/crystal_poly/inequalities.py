"""Exact integer linear forms and the rewriting closures that generate them.

A form is ``constant + sum(coeff * x_position)``; the defining inequality sets
of the realizations are closures of small seed sets under two rewriting steps:

* the plain step (limit crystal): at a positively-weighted position subtract
  that position's coupling form, at a negatively-weighted one add the coupling
  form of the previous same-color position (nothing at a first occurrence);
* the boundary-aware step (highest-weight case): same, except that a negative
  coefficient at a first occurrence adds the negated weight seed of its color.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, chain, compress
from operator import add, mul, neg

from .cartan import Context, node_cap
from .crystal import ZVector, _dense


class LinearForm:
    """Immutable exact-integer affine form on sparse vectors.

    Stored like ``ZVector``: the constant and the dense row, the tuple of
    coefficients at positions 1..max_pos(), whose last entry is nonzero, so
    that equal forms have equal rows.
    """

    __slots__ = ("constant", "_row", "_h")

    def __init__(self, constant: int = 0, terms=None):
        self.constant = int(constant)
        self._row = _dense(terms)
        self._h = hash((self.constant, self._row))

    ZERO: "LinearForm"

    @staticmethod
    def _make(constant: int, row: tuple) -> "LinearForm":
        """A form from its constant and dense row, a tuple of ints whose last
        entry is nonzero: nothing is re-checked."""
        res = object.__new__(LinearForm)
        res.constant = constant
        res._row = row
        res._h = hash((constant, row))
        return res

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """(position, coefficient) of the nonzero coefficients, by position."""
        return tuple(compress(enumerate(self._row, 1), self._row))

    def coeff(self, pos: int) -> int:
        row = self._row
        return row[pos - 1] if 0 < pos <= len(row) else 0

    def positions(self):
        return list(compress(range(1, len(self._row) + 1), self._row))

    def max_pos(self) -> int:
        return len(self._row)

    def evaluate(self, x: ZVector) -> int:
        # both rows are zero past their ends, so map stops at the shorter one
        return self.constant + sum(map(mul, self._row, x._row))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        """Elementwise sum of the rows, trailing zeros dropped."""
        a, b = self._row, other._row
        if len(a) < len(b):
            a, b = b, a
        row = (*map(add, a, b), *a[len(b):])
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        return LinearForm._make(self.constant + other.constant, row[:end])

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + -other

    def __neg__(self) -> "LinearForm":
        return LinearForm._make(-self.constant, tuple(map(neg, self._row)))

    def shift_periods(self, period: int, delta: int) -> "LinearForm":
        """Translate every position by ``delta`` word periods."""
        return LinearForm(self.constant, {p + delta * period: c for p, c in self.terms})

    def sort_key(self):
        """Deterministic order: max position, then coefficient string, constant."""
        return (len(self._row), self._row, self.constant)

    def render(self, ctx: Context) -> str:
        bits = [("- " if c < 0 else "+ ") + ("" if abs(c) == 1 else f"{abs(c)}*")
                + "x[%d,%d]" % ctx.sk_of(p) for p, c in self.terms]
        if self.constant or not bits:
            bits.append(("- " if self.constant < 0 else "+ ") + str(abs(self.constant)))
        text = " ".join(bits)  # the first sign loses its space, a leading "+" goes
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json(self, ctx: Context) -> dict:
        return {
            "constant": self.constant,
            "terms": [
                {"s": ctx.occurrence_of(p), "k": ctx.color_of(p), "coeff": c}
                for p, c in self.terms
            ],
        }

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.constant == other.constant
            and self._row == other._row
        )

    def __hash__(self):
        return self._h

    def __repr__(self):
        inside = " ".join(f"{c:+d}*x{p}" for p, c in self.terms)
        return f"LinearForm({self.constant} {inside})".rstrip()


LinearForm.ZERO = LinearForm()


def variable(pos: int) -> LinearForm:
    return LinearForm(0, {pos: 1})


def sorted_forms(forms) -> list[LinearForm]:
    return sorted(forms, key=LinearForm.sort_key)


# ---- coupling forms and seeds ---------------------------------------------------


def coupling_form(ctx: Context, s: int, k: int) -> LinearForm:
    """The form subtracted when rewriting at the s-th occurrence of color k.

    Two unit terms at consecutive occurrences of k plus the Cartan-weighted
    coupled colors, each offset by the word order matrix.
    """
    t = {ctx.pos_of(s, k): 1, ctx.pos_of(s + 1, k): 1}
    for c in ctx.colors():
        a = ctx.pairing(k, c)
        if c != k and a < 0:
            pos = ctx.pos_of(s + ctx.p[(c, k)], c)
            t[pos] = t.get(pos, 0) + a
    return LinearForm(0, t)


def weight_seed(ctx: Context, lam: dict[int, int], k: int) -> LinearForm:
    """The color-k boundary form: the weight pairing minus the leading terms.

    Constant ``<h_k, lam>``; minus the pairing-weighted positions before the
    first occurrence of k; minus the first occurrence itself.
    """
    first = ctx.first_pos(k)
    t = {first: -1}
    for pos in range(1, first):
        a = ctx.pairing(k, ctx.color_of(pos))
        if a:
            t[pos] = t.get(pos, 0) - a
    return LinearForm(lam.get(k, 0), t)


def seed_offset(ctx: Context, k: int) -> LinearForm:
    """The linear part of the color-k boundary form (constant dropped)."""
    return weight_seed(ctx, {}, k)


# ---- rewriting steps ------------------------------------------------------------


def _delta(ctx: Context, lam):
    """The rewriting step as ``delta(pos, positive)``: the form that a step at
    ``pos`` adds to a form whose coefficient there has the given sign, or
    ``None`` when the step does not move.

    ``lam is None`` gives the plain step (limit crystal), a weight dict the
    boundary-aware one (highest-weight case).  The form depends only on the
    position and the sign, never on the form rewritten.
    """

    def delta(pos: int, positive: bool) -> LinearForm | None:
        s, k = ctx.sk_of(pos)
        if positive:
            return -coupling_form(ctx, s, k)
        if s >= 2:
            return coupling_form(ctx, s - 1, k)
        return None if lam is None else -weight_seed(ctx, lam, k)

    return delta


def rewrite(ctx: Context, lam: dict[int, int] | None, form: LinearForm,
            pos: int) -> LinearForm:
    """One boundary-aware rewriting step at ``pos`` (highest-weight flavor);
    ``lam=None`` gives the plain step."""
    c = form.coeff(pos)
    d = _delta(ctx, lam)(pos, c > 0) if c else None
    return form if d is None else form + d


# ---- closures --------------------------------------------------------------------


_BIAS = 128  # a coefficient c is stored as the byte c + _BIAS
_SPAN = 63  # the coefficients of an expanded row and of a step: |c| <= _SPAN
_OUT = 3
# class of a coefficient byte: 0 zero, 1 positive, 2 negative, _OUT past +-_SPAN
_CLASSES = bytes(0 if v == _BIAS else _OUT if abs(v - _BIAS) > _SPAN else
                 1 if v > _BIAS else 2 for v in range(256))
# a coefficient byte as the coefficient's two's-complement byte
_SIGNED = bytes((v - _BIAS) & 255 for v in range(256))


def _zero_row(width: int) -> int:
    """The coefficient bytes of a packed row whose coefficients are all zero."""
    return int.from_bytes(bytes([_BIAS]) * width, "little")


class ClosureResult:
    """The forms a closure kept, as the packed rows of ``_close`` (see
    there), each with ``width`` coefficient bytes: no kept form reaches past
    ``width``.

    Only the rows are kept; a ``LinearForm`` is built when a caller asks
    for one, and not kept: ``forms`` decodes every row on each call
    (iterating the result iterates them), ``within`` decodes only the rows
    inside a window, and ``values`` and ``restriction`` read the rows
    undecoded.  ``len`` is the row count.
    """

    __slots__ = ("rows", "width", "converged", "pruned")

    def __init__(self, rows, width: int, converged: bool, pruned: int):
        self.rows = rows
        self.width = width
        self.converged = converged
        self.pruned = pruned

    def _decode(self, rows) -> frozenset[LinearForm]:
        """The rows' forms: their bytes, unbiased and stripped of trailing
        zeros, are the forms' dense rows."""
        width = self.width
        shift, mask = 8 * width, (1 << 8 * width) - 1
        return frozenset(
            LinearForm._make(row >> shift, tuple(memoryview(
                (row & mask).to_bytes(width, "little").translate(_SIGNED).rstrip(b"\0")
            ).cast("b")))
            for row in rows)

    @property
    def forms(self) -> frozenset[LinearForm]:
        return self.within(self.width)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.forms)

    def values(self, x: ZVector) -> list[int]:
        """f(x) for every row, in row order, without building a form.

        A row's coefficient bytes are its coefficients plus ``_BIAS``, so
        f(x) is the constant (``>>`` floors, so a negative one comes back
        exactly) plus the bytes times x, minus ``_BIAS`` times the entries
        of x.  Only the bytes under x's row can meet an entry; rows that
        agree there share the linear part, computed once per distinct bytes
        (a closure run past x repeats them: 1,529 distinct of 17,985 rows in
        the A2 (2,1,3) w1 family at support 10).
        """
        xrow = x._row[:self.width]
        m = len(xrow)
        shift, low = 8 * self.width, (1 << 8 * m) - 1
        offset = _BIAS * sum(xrow)
        linear = {}
        out = []
        for row in self.rows:
            key = row & low
            part = linear.get(key)
            if part is None:
                part = linear[key] = sum(map(mul, key.to_bytes(m, "little"), xrow)) - offset
            out.append((row >> shift) + part)
        return out

    def within(self, window: int) -> frozenset[LinearForm]:
        """The forms whose last position is at most ``window``."""
        if window < 0:
            return frozenset()
        # the coefficient bytes past the window, and their value when all are zero
        tail = ((1 << 8 * self.width) - 1) ^ ((1 << 8 * min(window, self.width)) - 1)
        zero = _zero_row(self.width) & tail
        return self._decode([row for row in self.rows if row & tail == zero])

    def restriction(self, support: int) -> tuple[list[bytes], list[int], list[int]]:
        """The rows cut to positions ``1..support`` that can go negative on
        a nonnegative vector, read in one pass without building a form.

        A row is kept when its constant is negative or a coefficient inside
        the cut is (a negative coefficient's byte has its top bit clear);
        rows that agree inside the cut are merged into the smallest
        constant.  Returns ``(coeffs, consts, starts)``: one string of
        ``support`` signed bytes per kept row (zero past the width), their
        constants, and the groups by last active column: the rows whose
        last active position is j (0 for a constant row) are
        ``starts[j]:starts[j + 1]``, in no particular order within a group.
        """
        cut = min(support, self.width)
        low, signs, shift = (1 << 8 * cut) - 1, _zero_row(cut), 8 * self.width
        best = {}  # the coefficient bytes ^ signs are the signed coefficients
        for row in self.rows:
            if row < 0 or row & signs != signs:
                key, const = row & low ^ signs, row >> shift
                if const < best.get(key, const + 1):
                    best[key] = const
        groups = [[] for _ in range(support + 1)]
        for key in best:
            groups[(key.bit_length() + 7) >> 3].append(key)
        keys = [*chain.from_iterable(groups)]
        return ([key.to_bytes(support, "little") for key in keys],
                [*map(best.__getitem__, keys)], [*accumulate(map(len, groups), initial=0)])


def _span_error(coeff: int, pos: int) -> RuntimeError:
    return RuntimeError(f"closure coefficient {coeff} at position {pos} is outside "
                        f"the packed-row limit of +-{_SPAN}")


def _close(seeds, delta, bound: int) -> ClosureResult:
    """Breadth-first closure of ``seeds`` under the step ``delta`` (see
    ``_delta``), keeping every form inside its width: the bound, or the last
    seed position if that lies further out.

    Inside the search a form is one packed ``int``, its row: byte ``p - 1``
    holds the coefficient at position ``p`` plus ``_BIAS``, for ``p`` in
    ``1..width``, and the constant, of any size, sits above those bytes.  A
    step's form depends only on (position, sign), so each is packed once per
    call, when first needed, with unbiased coefficients; a step is then one
    integer addition.  Translating a row's bytes through ``_CLASSES`` gives
    its nonzero positions and their signs.

    No carry: the addition is exact byte by byte as long as every sum stays
    in ``0..255``.  Seeds and step forms must have coefficients within
    ``+-_SPAN`` (63), and each row is checked for that when it is taken from
    the queue, before any step is added to it; a child's coefficients then
    lie within ``+-2 * _SPAN``, bytes ``1..255``.  A coefficient past the
    span raises ``RuntimeError`` naming it, its position and the limit, so
    a row never wraps into its neighbour.

    A step form reaching past ``width`` counts as pruned and builds
    nothing, so no row ever leaves the width.  Once ``node_cap()`` forms are
    kept the search stops, unconverged.  The kept rows are the result's,
    undecoded (see ``ClosureResult``).
    """
    cap = node_cap()
    start = set(seeds)
    width = max([bound] + [f.max_pos() for f in start])
    shift = 8 * width  # the constant's offset
    mask = (1 << shift) - 1  # the coefficient bytes
    zero = _zero_row(width)

    def pack(form: LinearForm) -> int:
        row = form.constant << shift
        for i, c in enumerate(form._row):
            if abs(c) > _SPAN:
                raise _span_error(c, i + 1)
            row += c << 8 * i
        return row

    past = ()  # a step form reaching past width: falsy like "no move", but pruned
    unset = object()
    # per position: [position, step for a positive, step for a negative coefficient]
    slots = [[p, unset, unset] for p in range(1, width + 1)]
    queue = deque(zero + pack(f) for f in start)
    seen = set(queue)
    pruned = 0
    converged = True
    while queue:
        row = queue.popleft()
        classes = (row & mask).to_bytes(width, "little").translate(_CLASSES)
        if _OUT in classes:
            i = classes.index(_OUT)
            raise _span_error(((row >> 8 * i) & 255) - _BIAS, i + 1)
        for slot, sign in compress(zip(slots, classes), classes):
            step = slot[sign]
            if step is unset:
                d = delta(slot[0], sign == 1)
                step = slot[sign] = (None if d is None else
                                     past if d.max_pos() > width else pack(d))
            if not step:
                if step is past:
                    pruned += 1
                continue
            new = row + step
            if new in seen:
                continue
            if len(seen) >= cap:
                converged = False
                queue.clear()
                break
            seen.add(new)
            queue.append(new)
    return ClosureResult(seen, width, converged, pruned)


def _bound(ctx: Context, window: int, margin_periods: int = 2) -> int:
    """The one margin convention: closures run ``margin_periods`` word periods
    past the window, and never less than one period out.  Every seed of the
    entry points (the variables, each color's weight seed and seed offset)
    then lies inside the bound, so each of their closures has width the
    bound."""
    return max(window + margin_periods * ctx.period, ctx.period)


def _variables(bound: int) -> list[LinearForm]:
    return [variable(p) for p in range(1, bound + 1)]


_PLAIN_CACHE: dict[tuple, ClosureResult] = {}


def _plain_closure(ctx: Context, bound: int) -> ClosureResult:
    """Plain-step closure of the variables out to ``bound``.

    It does not depend on the weight, so one is built per (ctx, bound, node
    cap) and shared by every caller.  Only converged results are stored; the
    cap is in the key because a result that converged under one cap need not
    converge under a lower one.
    """
    key = (ctx.family, ctx.n, ctx.word, bound, node_cap())
    res = _PLAIN_CACHE.get(key)
    if res is None:
        res = _close(_variables(bound), _delta(ctx, None), bound)
        if res.converged:
            _PLAIN_CACHE[key] = res
    return res


def limit_inequalities(ctx: Context, window: int) -> ClosureResult:
    """Closure of all single-variable seeds inside the window (limit crystal)."""
    return _plain_closure(ctx, _bound(ctx, window))


def weight_inequalities(ctx: Context, lam, window: int) -> ClosureResult:
    """Closure of the variables plus all boundary seeds (highest-weight case)."""
    bound = _bound(ctx, window)
    seeds = _variables(bound) + [weight_seed(ctx, lam, k) for k in ctx.colors()]
    return _close(seeds, _delta(ctx, lam), bound)


def boundary_closure_for_color(ctx: Context, lam, k: int, window: int) -> ClosureResult:
    """Closure of the single color-k boundary seed under boundary rewriting."""
    return _close([weight_seed(ctx, lam, k)], _delta(ctx, lam), _bound(ctx, window))


def offset_closure_for_color(ctx: Context, k: int, window: int) -> ClosureResult:
    """Closure of the color-k seed offset under plain rewriting."""
    return _close([seed_offset(ctx, k)], _delta(ctx, None), _bound(ctx, window))


def membership_family(ctx: Context, lam, support: int,
                      margin_periods: int = 1) -> tuple[ClosureResult, bool]:
    """Inequality family adequate for deciding membership of vectors supported
    in positions ``1..support``, undecoded (see ``ClosureResult``).

    The limit closure of the variables (shared across weights, see
    ``_plain_closure``, and returned itself when ``lam`` is None) united, in
    the highest-weight case, with the closure of each color's boundary seed,
    all at the bound ``margin_periods`` word periods past ``support`` (see
    ``_bound``).  Every part then has that bound as its width, so the union
    is the plain set union of the parts' rows, undecoded.  Terms at
    positions beyond ``support`` evaluate to zero on such vectors, so only
    each form's restriction to the support matters; generating out to a
    margin and keeping every form can only sharpen the test, never wrongly
    reject a member.
    """
    bound = _bound(ctx, support, margin_periods)
    res = _plain_closure(ctx, bound)
    if lam is not None:
        parts = [res] + [_close([weight_seed(ctx, lam, k)], _delta(ctx, lam), bound)
                         for k in ctx.colors()]
        res = ClosureResult(set().union(*(r.rows for r in parts)), bound,
                            all(r.converged for r in parts), sum(r.pruned for r in parts))
    return res, res.converged


def node_cap_error(ctx: Context, support: int, margin_periods: int) -> RuntimeError:
    """The error for a ``membership_family`` call that hit the node cap."""
    return RuntimeError(f"inequality generation hit the node cap of {node_cap()} forms (support "
                        f"{support}, closure bound {_bound(ctx, support, margin_periods)})")


def epsilon_star_forms(ctx: Context, x, k: int, window: int | None = None) -> int:
    """Starred string value of ``x`` at color ``k``: the maximum of ``-f(x)``
    over the color-k offset closure (clamped at 0, attained by the zero form's
    limit), built uncached out to ``window`` itself, by default
    ``max(x.max_pos(), ctx.period)``.  Every closure element is a valid
    inequality, so the value is a lower bound that a wider window can only
    raise; ``epsilon-star --method both`` certifies it against the oracle.  A
    vector with a negative entry is refused; membership is not checked otherwise."""
    if not x.nonnegative():
        raise ValueError("vector has negative entries")
    if window is None:
        window = max(x.max_pos(), ctx.period)
    res = _close([seed_offset(ctx, k)], _delta(ctx, None), window)
    if not res.converged:
        raise RuntimeError(
            f"offset closure for color {k} hit the node cap of {node_cap()} forms "
            f"(closure bound {window}); raise CRYSTAL_POLY_NODE_CAP or lower the window")
    return max(0, -min(res.values(x)))


# ---- structural checks ------------------------------------------------------------


def first_violation_positivity(ctx: Context, forms) -> tuple[LinearForm, int] | None:
    """First form, in ``sorted_forms`` order, with a negative coefficient at
    some first-occurrence position, and the first such position.  Like
    ``membership``, it takes the smallest violator by the (injective)
    ``LinearForm.sort_key`` without sorting the family."""
    period = ctx.period
    violated = [form for form in forms if min(form._row[:period], default=0) < 0]
    if not violated:
        return None
    form = min(violated, key=LinearForm.sort_key)
    return form, next(p for p in range(1, period + 1) if form.coeff(p) < 0)


def check_positivity(ctx: Context, forms) -> bool:
    return first_violation_positivity(ctx, forms) is None


def check_strict_positivity(ctx: Context, window: int) -> bool:
    """Positivity over the per-color offset closures (seeds removed) plus the
    limit closure."""
    pool: set[LinearForm] = set(limit_inequalities(ctx, window).forms)
    for k in ctx.colors():
        res = offset_closure_for_color(ctx, k, window)
        pool |= res.forms - {seed_offset(ctx, k)}
    return check_positivity(ctx, pool)


def check_ample(forms) -> bool:
    return all(f.constant >= 0 for f in forms)


# ---- membership -------------------------------------------------------------------


def membership(family: ClosureResult, x: ZVector) -> tuple[bool, LinearForm | None]:
    """Evaluate every row of ``family`` (see ``membership_family``) on x;
    return (ok, witness).

    The witness is the smallest violated form under ``LinearForm.sort_key``,
    i.e. the first violated one in ``sorted_forms`` order (the key is
    injective), found without sorting the family.  Only the violated rows
    are decoded: a member decodes none.
    """
    violated = [row for row, value in zip(family.rows, family.values(x)) if value < 0]
    if not violated:
        return True, None
    return False, min(family._decode(violated), key=LinearForm.sort_key)
