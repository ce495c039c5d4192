"""Combinatorial shape families and their closed-form inequality sets.

Three shape families index the closed-form inequalities:

* :class:`ExtendedYoungDiagram` -- one-sided, eventually-constant nondecreasing
  integer profiles of a given charge (plain and C-machinery cases);
* :class:`RevisedEYD` -- two-sided profiles with residue-periodic step
  relaxations (twisted machineries, non-special colors);
* :class:`YoungWall` -- block walls over a half-block ground row (twisted
  machineries, special colors).

Every shape maps to an integer linear form through its boundary data (corners,
admissible/removable points, admissible slots/removable blocks); the per-color
inequality family of a dominant weight is either a singleton, a one-sided
ladder, or the forms of all nonground shapes, selected by the relative order
of first occurrences in the word.
"""

from __future__ import annotations

from collections import deque
from functools import cache

from .cartan import Context, node_cap
from .inequalities import LinearForm


def _form(terms) -> LinearForm:
    """The form with the summed coefficients of its ``(position, coeff)`` terms;
    a term below position 1 lies in the hidden region, before the word starts."""
    row = [0] * max(terms)[0] if terms else []
    for p, c in terms:
        if p > 0:
            row[p - 1] += c
    while row and not row[-1]:
        row.pop()
    return LinearForm._make(0, tuple(row))


class _Shape:
    """Equality shared by the shape classes: two shapes are equal when they are
    of one class, with one charge and one stored profile (:meth:`_key`).  One
    pass over the profile, ``_pass(ctx)``, gives the (entering, leaving) points
    as (index, level, form coeff); ``_grown(point)`` enters a box at one."""

    __slots__ = ()

    def _key(self):
        """The charge and the stored profile: ``ys``, ``devs`` or ``cols``."""
        return self.charge, getattr(self, self.__slots__[1])

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# --------------------------------------------------------------------------------
# extended Young diagrams
# --------------------------------------------------------------------------------


class ExtendedYoungDiagram(_Shape):
    """Nondecreasing profile ``y_0 <= y_1 <= ...`` with values < charge stored
    explicitly and the constant tail implied."""

    __slots__ = ("charge", "ys")
    kind = "eyd"

    def __init__(self, charge: int, ys=()):
        ys = tuple(int(v) for v in ys)
        while ys and ys[-1] >= charge:
            if ys[-1] > charge:
                raise ValueError("profile exceeds charge")
            ys = ys[:-1]
        if any(a > b for a, b in zip(ys, ys[1:])):
            raise ValueError("profile must be nondecreasing")
        self.charge = charge
        self.ys = ys

    def y(self, r: int) -> int:
        return self.ys[r] if r < len(self.ys) else self.charge

    def boxes(self) -> int:
        return sum(self.charge - v for v in self.ys)

    def _pass(self, ctx=None):
        """(concave, convex) corners as (i, level, +-1), the one move rule: a box
        enters at each concave corner (i, j), taking column i to level j - 1,
        and leaves column i - 1 of each convex one, taking it to level j + 1."""
        ys, charge = self.ys, self.charge
        concave, convex = [(0, ys[0] if ys else charge, 1)], []
        for i, (a, b) in enumerate(zip(ys, ys[1:] + (charge,)), 1):
            if a < b:  # a step up: one corner of each kind
                convex.append((i, a, -1))
                concave.append((i, b, 1))
        return concave, convex

    def corners(self):
        """(concave, convex) corner lists as (i, level) pairs (see ``_pass``)."""
        return tuple([(i, j) for i, j, _ in corners] for corners in self._pass())

    def _grown(self, corner) -> "ExtendedYoungDiagram":
        res, i = object.__new__(ExtendedYoungDiagram), corner[0]
        res.charge, res.ys = self.charge, self.ys[:i] + (corner[1] - 1,) + self.ys[i + 1:]
        return res

    def additions(self):
        """All single-box additions, as (column, new diagram) pairs."""
        return [(p[0], self._grown(p)) for p in self._pass()[0]]

    def removals(self):
        """All single-box removals, as (column, new diagram) pairs."""
        ys = self.ys
        return [(i - 1, ExtendedYoungDiagram(self.charge, ys[:i - 1] + (j + 1,) + ys[i:]))
                for i, j, _ in self._pass()[1]]

    def __repr__(self):
        return f"EYD(charge={self.charge}, ys={list(self.ys)})"


# --------------------------------------------------------------------------------
# revised extended Young diagrams
# --------------------------------------------------------------------------------


class RevisedEYD(_Shape):
    """Two-sided profile stored as deviations from the ground profile
    ``charge + min(t, 0)``; always strictly below ground where stored.

    One legality rule governs every move: entry ``t`` may sit at level ``v``
    when ``v`` is at most the ground level at ``t`` and the steps to both
    neighbours are permitted (:meth:`_fits`).  The one pass applies it at
    each entry of :meth:`_scan`; the moves and point lists read the pass.
    """

    __slots__ = ("charge", "devs", "_at")
    kind = "reyd"

    def __init__(self, charge: int, devs=()):
        self.charge = charge
        self._at = {}  # devs indexed by entry
        for t, y in devs.items() if isinstance(devs, dict) else devs:
            t, y = int(t), int(y)
            if t in self._at:
                raise ValueError(f"entry at {t} is given twice")
            if y >= self.ground(t):
                raise ValueError(f"entry at {t} is not below the ground profile")
            self._at[t] = y
        self.devs = tuple(sorted(self._at.items()))

    def ground(self, t: int) -> int:
        return self.charge + min(t, 0)

    def y(self, t: int) -> int:
        return self._at[t] if t in self._at else self.ground(t)

    def boxes(self) -> int:
        return sum(self.ground(t) - v for t, v in self.devs)

    def _scan(self):
        """The indexes that can hold a point.

        A decrement at i reads only the entries i - 1..i + 1, and none fits
        where all three lie on the ground away from its corner at 0: on the
        flat right it steps down, on the slope left it leaves a step of two.
        So every decrement lies in ``min(lo, 0) - 1 .. max(hi, 0) + 1`` for
        the stored entries ``lo .. hi``.  An increment needs a stored entry,
        so it lies in ``lo .. hi``.
        """
        lo, hi = (self.devs[0][0], self.devs[-1][0]) if self.devs else (0, 0)
        return range(min(lo, 0) - 1, max(hi, 0) + 2)

    def _fits(self, t: int, v: int, a: int, c: int, low_in: bool, low_out: bool) -> bool:
        """Whether entry t may sit at level v between levels a = y_{t-1} and
        c = y_{t+1}.  A step from entry u to u + 1 stays level or rises by one;
        at a low residue ``charge + u`` (``low_in``: u = t - 1, ``low_out``:
        u = t) it may also rise more for u > 0, fall for u < 0, either at 0."""
        if v > (self.charge + t if t < 0 else self.charge):
            return False
        d, e = v - a, c - v  # the steps into and out of entry t
        return ((0 <= d <= 1 or low_in and (t == 1 or (d >= 0 if t > 1 else d <= 1)))
                and (0 <= e <= 1 or low_out and (t == 0 or (e >= 0 if t > 0 else e <= 1))))

    def _pass(self, ctx: Context):
        """(decrement points, increment points) over :meth:`_scan` as (entry,
        level before the move, +-1 or +-2); the folded pattern's low residues
        are 0, and n for D2.  A point of a special color off entry 0 counts
        twice: a lowered one (step up on its left, flat on its right) at a low
        residue for t > 0, at an up residue (one above a low one) for t < 0; a
        restored one (flat on its left, step up on its right) the reverse."""
        charge, at, period = self.charge, self._at, ctx.fold_period
        lows = (0, ctx.n) if ctx.machinery == "D2" else (0,)
        plus, minus, scan = [], [], self._scan()
        a, b = self.y(scan.start - 1), self.y(scan.start)
        low_in = (charge + scan.start - 1) % period in lows
        for t in scan:
            c = at.get(t + 1, charge + t + 1 if t < -1 else charge)
            low_out = (charge + t) % period in lows
            if self._fits(t, b - 1, a, c, low_in, low_out):
                double = (t and a < b == c and (low_out if t > 0 else low_in)
                          and ctx.fold(t + charge) in ctx.specials)
                plus.append((t, b, 2 if double else 1))
            if t in at and self._fits(t, b + 1, a, c, low_in, low_out):
                double = (t and a == b < c and (low_in if t > 0 else low_out)
                          and ctx.fold(t + charge) in ctx.specials)
                minus.append((t, b, -2 if double else -1))
            a, b, low_in = b, c, low_out
        return plus, minus

    def _grown(self, point) -> "RevisedEYD":
        at = dict(self._at)
        at[point[0]] = point[1] - 1
        res = object.__new__(RevisedEYD)
        res.charge, res._at, res.devs = self.charge, at, tuple(sorted(at.items()))
        return res

    def dec(self, ctx: Context, i: int) -> "RevisedEYD | None":
        return next((self._grown(p) for p in self._pass(ctx)[0] if p[0] == i), None)

    def inc(self, ctx: Context, i: int) -> "RevisedEYD | None":
        for t, y, _ in self._pass(ctx)[1]:
            if t == i:  # an entry restored to the ground is no longer stored
                rest = [(e, v) for e, v in self.devs if e != t]
                return RevisedEYD(self.charge, rest + [(t, y + 1)] * (y + 1 < self.ground(t)))
        return None

    def admissible_points(self, ctx: Context):
        """Valid decrements as (index, level, color, double) tuples."""
        return [(t, y, ctx.fold(t + self.charge), c == 2) for t, y, c in self._pass(ctx)[0]]

    def removable_points(self, ctx: Context):
        """Valid increments at i-1, reported at index i, as (i, level, color,
        double) with level the entry being restored."""
        return [(t + 1, y, ctx.fold(t + self.charge), c == -2) for t, y, c in self._pass(ctx)[1]]

    def __repr__(self):
        return f"RevisedEYD(charge={self.charge}, devs={dict(self.devs)})"


# --------------------------------------------------------------------------------
# Young walls
# --------------------------------------------------------------------------------

class YoungWall(_Shape):
    """Columns of filled slot counts (>= 1 everywhere; trailing ground columns
    implied), weakly decreasing, no two full columns of equal height.

    One legality rule governs every move: a column may hold ``c`` slots when
    ``c >= 1``, ``c`` lies weakly between its neighbours, and a full column
    is not level with a neighbour (:meth:`_fits`).  Single moves change one
    column by one slot; a pair move fills or empties both halves of a
    special band at once and applies the same rule at two slots.
    """

    __slots__ = ("charge", "cols")
    kind = "wall"

    def __init__(self, charge: int, cols=()):
        cols = tuple(int(c) for c in cols)
        while cols and cols[-1] == 1:
            cols = cols[:-1]
        if any(c < 1 for c in cols):
            raise ValueError("slot counts start at the ground block")
        if any(a < b for a, b in zip(cols, cols[1:])):
            raise ValueError("columns must be weakly decreasing")
        self.charge = charge
        self.cols = cols

    def col(self, i: int) -> int:
        return self.cols[i] if i < len(self.cols) else 1

    def blocks(self) -> int:
        return sum(c - 1 for c in self.cols)

    def _full(self, ctx: Context, c: int) -> bool:
        """Whether c slots end on a whole band: slot c - 1 is no lower half."""
        return ctx.wall_slot(self.charge, c - 1)[2] != 0

    def is_proper(self, ctx: Context) -> bool:
        cols = self.cols
        return not any(a == b and self._full(ctx, a) for a, b in zip(cols, cols[1:]))

    def _fits(self, ctx: Context, left: int | None, c: int, right: int) -> bool:
        """Whether a column may hold c slots between columns of ``left``
        (None left of column 0) and ``right`` slots."""
        return (c >= right and c >= 1 and (left is None or c <= left)
                and not (c in (left, right) and self._full(ctx, c)))

    def _pass(self, ctx: Context):
        """(slots where a block may enter, top blocks that may leave) as (column,
        slot count, +-1 or +-2) over the stored columns and the first ground
        one; a pair move at a special band counts once, with coeff +-2.  A block
        leaving column i of c slots is listed at (i + 1, c - 1), where its term is read."""
        cols, charge, plus, minus = self.cols, self.charge, [], []
        for i, (left, c, right) in enumerate(zip((None,) + cols, cols + (1,), cols[1:] + (1, 1))):
            if self._fits(ctx, left, c + 2, right) and ctx.wall_slot(charge, c)[2] == 0:
                plus.append((i, c, 2))
            elif self._fits(ctx, left, c + 1, right):
                plus.append((i, c, 1))
            if self._fits(ctx, left, c - 2, right) and ctx.wall_slot(charge, c - 1)[2] == 1:
                minus.append((i + 1, c - 1, -2))
            elif self._fits(ctx, left, c - 1, right):
                minus.append((i + 1, c - 1, -1))
        return plus, minus

    def _grown(self, slot) -> "YoungWall":
        res, i = object.__new__(YoungWall), slot[0]
        res.charge, res.cols = self.charge, self.cols[:i] + (slot[1] + 1,) + self.cols[i + 1:]
        return res

    def add(self, ctx: Context, i: int) -> "YoungWall | None":
        return next((self._grown(p) for p in self._pass(ctx)[0] if p[0] == i), None)

    def remove(self, ctx: Context, i: int) -> "YoungWall | None":
        return next((YoungWall(self.charge, self.cols[:i] + (c,) + self.cols[i + 1:])
                     for j, c, _ in self._pass(ctx)[1] if j == i + 1), None)

    def admissible_slots(self, ctx: Context):
        """(column, band, color, double) for each place a block may enter."""
        return [(i, *ctx.wall_slot(self.charge, c)[:2], d == 2) for i, c, d in self._pass(ctx)[0]]

    def removable_blocks(self, ctx: Context):
        """(column, band, color, double) for each top block that may leave."""
        return [(i - 1, *ctx.wall_slot(self.charge, c)[:2], d == -2)
                for i, c, d in self._pass(ctx)[1]]

    def __repr__(self):
        return f"YoungWall(charge={self.charge}, cols={list(self.cols)})"


# --------------------------------------------------------------------------------
# shape family dispatch
# --------------------------------------------------------------------------------


def shape_kind(ctx: Context, k: int) -> str:
    """Which shape family indexes color k's inequalities."""
    if ctx.machinery in ("A1", "C1"):
        return "eyd"
    return "wall" if k in ctx.specials else "reyd"


_SHAPE_CLASS = {cls.kind: cls for cls in (ExtendedYoungDiagram, RevisedEYD, YoungWall)}


def ground_shape(ctx: Context, k: int):
    """The empty shape of color k's family: charge k, nothing added."""
    return _SHAPE_CLASS[shape_kind(ctx, k)](k)


def _survey(ctx: Context, k: int, s: int, kind: str):
    """The one pass of a ``kind`` shape of charge k at offset s, as a function:
    shape -> (its form, its children, made as they are read).  A point's term
    sits at occurrence ``s + shift(k, i + j) + min(k - j, i)`` of
    ``fold(i + j)`` for a diagram's corner (i, j), ``s + shift(k, t + k) +
    min(t, 0) + k - y`` of ``fold(t + k)`` for a revised diagram's entry t at
    level y, and ``s + wall_shift(k, band) + i`` for a wall's slot at column
    i.  All but the last summand depend on one pattern slot, whose position
    a table local to the survey computes once, when first read.  The mins
    are written out: a call of the builtin costs as much as the rest."""
    n = ctx.n
    @cache
    def table(t):  # the term position of pattern slot t, all but the last summand
        if kind == "wall":
            band, color, _ = ctx.wall_slot(k, t)
            return n * (s - 1 + ctx.wall_shift(k, band)) + ctx.first_pos(color)
        return n * (s - 1 + ctx.shift(k, t)) + ctx.first_pos(ctx.fold(t))
    if kind == "eyd":
        def place(points):
            return [(table(i + j) + n * (k - j if k - j < i else i), c) for i, j, c in points]
    elif kind == "reyd":
        def place(points):
            return [(table(t + k) + n * ((t if t < 0 else 0) + k - y), c) for t, y, c in points]
    else:
        def place(points):
            return [(table(c) + n * i, d) for i, c, d in points]

    def survey(shape):
        plus, minus = shape._pass(ctx)
        return _form(place(plus + minus)), map(shape._grown, plus)

    return survey


def shape_form(ctx: Context, k: int, shape, s: int) -> LinearForm:
    """The form at offset s of a shape of color k's family."""
    return _survey(ctx, k, s, shape.kind)(shape)[0]


eyd_form = reyd_form = wall_form = shape_form


def shape_children(ctx: Context, shape):
    """The shapes one box bigger: one per point where a box may enter."""
    return list(map(shape._grown, shape._pass(ctx)[0]))


def enumerate_shapes(ctx: Context, k: int, s: int, bound: int):
    """BFS over single additions from the ground shape, quotiented by form:
    expands one representative shape per distinct form at offset ``s`` whose
    positions stay inside the bound.  Returns (frozenset of the distinct
    forms, converged flag); the ground shape's form is always among them.
    The node cap counts distinct forms.  Nothing is cached between calls.
    One pass (``_survey``) gives each shape's form and moves; a kept shape
    is expanded through the moves of that pass.

    Why pruning at the bound itself is exact.  If no move lowers the last
    position of its form, a form inside the bound is reached only through
    forms inside it, so the queue at bound B is the subsequence of the queue
    at any larger bound made of its shapes with forms inside B, with the same
    representative per form.  That is proven; the premise is checked: a move
    made here that lowers the last position raises ``RuntimeError``.  Moves
    out of shapes beyond the bound are never made, so never checked: a
    margin has the same blind spot past its own bound.

    Why one shape per form suffices.  By the one-box move identity, each
    legal move changes the form by plus or minus one coupling form at the
    move's index.  A positive coefficient marks an addable corner (point,
    slot) that every shape of that form has, and adding there subtracts the
    coupling form at that position's index; so the forms these moves reach
    depend only on the form, not on the hidden region the form drops (terms
    at occurrence index below 1, and corner terms that cancel).  Moves at
    hidden corners do depend on the hidden region, and two shapes of one
    form can have different children.  That the representatives still reach
    every form of the full shape BFS is checked, not proven: against the
    full BFS over the acceptance grid in the tests, and against the
    rewriting closures by the acceptance gate.
    """
    cap = node_cap()
    survey = _survey(ctx, k, s, shape_kind(ctx, k))
    ground_form, moves = survey(ground_shape(ctx, k))
    forms = {ground_form}
    queue = deque([(ground_form.max_pos(), moves)])
    converged = True
    while queue:
        top, moves = queue.popleft()
        for child in moves:
            form, kids = survey(child)
            last = form.max_pos()
            if last < top:
                raise RuntimeError(f"{shape_kind(ctx, k)} move lowers the last position "
                                   f"from {top} to {last} ({ctx.family} word {list(ctx.word)}, "
                                   f"color {k}, offset {s}, bound {bound})")
            if form in forms or last > bound:
                continue
            if len(forms) >= cap:
                converged = False
                queue.clear()
                break
            forms.add(form)
            queue.append((last, kids))
    return frozenset(forms), converged


# --------------------------------------------------------------------------------
# ladder forms (the one-sided cases)
# --------------------------------------------------------------------------------


def _rung(ctx: Context, k: int, hi: int, lo: int) -> LinearForm:
    """Color k's ladder rung: plus the ``shift(k, hi)``-th occurrence of
    ``fold(hi)``, minus the ``1 + shift(k, lo)``-th of ``fold(lo)``."""
    hi_color, lo_color = ctx.fold(hi), ctx.fold(lo)
    hi_coeff = lo_coeff = 1
    if ctx.machinery in ("A2", "D2") and hi_color != lo_color:
        if hi_color in ctx.specials:
            hi_coeff = 2
        elif lo_color in ctx.specials:
            lo_coeff = 2
    # an occurrence index below 1 gives a position below 1
    return _form([(ctx.pos_of(ctx.shift(k, hi), hi_color), hi_coeff),
                  (ctx.pos_of(1 + ctx.shift(k, lo), lo_color), -lo_coeff)])


def right_ladder(ctx: Context, k: int, r: int) -> LinearForm:
    """Rung ``r >= k+1`` of the rightward ladder family for color k."""
    return _rung(ctx, k, r, r - 1)


def left_ladder(ctx: Context, k: int, r: int) -> LinearForm:
    """Rung ``r <= k`` of the leftward ladder family for color k."""
    return _rung(ctx, k, r - 1, r)


# --------------------------------------------------------------------------------
# closed-form inequality sets
# --------------------------------------------------------------------------------


def comb_lambda_case(ctx: Context, k: int) -> str:
    """Select the shape of color k's weight-dependent family from the word."""
    if shape_kind(ctx, k) == "wall":
        above = ctx.first_pos(ctx.wall_fold(k + 1))
        return "singleton" if ctx.first_pos(k) < above else "shapes"
    me = ctx.first_pos(k)
    up = ctx.first_pos(ctx.fold(k + 1))
    down = ctx.first_pos(ctx.fold(k - 1))
    if me < up and me < down:
        return "singleton"
    if me < up:
        return "left"
    if me < down:
        return "right"
    return "shapes"


def _ladder_family(ctx: Context, k: int, window: int, direction: str):
    idx_bound = window // ctx.n + 2
    d = 1 if direction == "right" else -1
    hi, lo = (k + 1, k) if d == 1 else (k - 1, k)
    out = set()
    # occurrence indexes grow monotonically along the ladder, so once both
    # indexes of a rung pass the bound no later rung can reenter the window
    while min(ctx.shift(k, hi), 1 + ctx.shift(k, lo)) <= idx_bound:
        form = _rung(ctx, k, hi, lo)
        if form.max_pos() <= window:
            out.add(form)
        hi, lo = hi + d, lo + d
    return out


def comb_lambda(ctx: Context, lam: dict[int, int], k: int, window: int):
    """Color k's weight-dependent inequality family inside the window.

    Returns (frozenset of forms, converged flag).
    """
    lift = LinearForm(lam.get(k, 0))
    case = comb_lambda_case(ctx, k)
    if case == "singleton":
        return frozenset({lift + LinearForm(0, {ctx.first_pos(k): -1})}), True
    if case in ("left", "right"):
        fam = _ladder_family(ctx, k, window, case)
        return frozenset(lift + f for f in fam), True
    forms, converged = enumerate_shapes(ctx, k, 0, window)
    # at offset 0 every point of the ground shape lies at occurrence index
    # below 1, so its form is the zero form; no other shape has that form
    return frozenset(lift + f for f in forms if f != LinearForm.ZERO), converged


def comb_infinity(ctx: Context, window: int):
    """The weight-free inequality family inside the window: every shape of
    every color, at every nonnegative period shift that stays inside.

    Returns (frozenset of forms, converged flag).
    """
    out = set()
    converged = True
    for k in ctx.colors():
        forms, ok = enumerate_shapes(ctx, k, 1, window)
        converged = converged and ok
        for form in forms:
            while form.max_pos() <= window:
                out.add(form)
                form = form.shift_periods(ctx.n, 1)
    return frozenset(out), converged


def weight_family(ctx: Context, lam: dict[int, int], window: int):
    """Window slice of the full defining family for a dominant weight."""
    forms, converged = comb_infinity(ctx, window)
    all_forms = set(forms)
    for k in ctx.colors():
        fam, ok = comb_lambda(ctx, lam, k, window)
        converged = converged and ok
        all_forms |= fam
    return frozenset(all_forms), converged
