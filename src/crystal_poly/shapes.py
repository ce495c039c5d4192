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

from .cartan import Context, node_cap
from .inequalities import LinearForm


def _form(ctx: Context, points) -> LinearForm:
    """The form with ``coeff`` at the ``idx``-th occurrence of ``color`` for each
    ``(idx, color, coeff)`` point, coefficients at one position summed.

    A point at occurrence index below 1 lies in the hidden region, before the
    word starts, and contributes no term.
    """
    terms: dict[int, int] = {}
    for idx, color, coeff in points:
        if idx >= 1:
            pos = ctx.pos_of(idx, color)
            terms[pos] = terms.get(pos, 0) + coeff
    return LinearForm(0, terms)


class _Shape:
    """Equality shared by the shape classes: two shapes are equal when they are
    of one class, with one charge and one stored profile (:meth:`_key`)."""

    __slots__ = ()

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

    def _key(self):
        return self.charge, self.ys

    def y(self, r: int) -> int:
        return self.ys[r] if r < len(self.ys) else self.charge

    def boxes(self) -> int:
        return sum(self.charge - v for v in self.ys)

    def corners(self):
        """(concave, convex) corner lists as (i, level) pairs: the one move
        rule.  A box enters at each concave corner (i, j), taking column i to
        level j - 1, and leaves at column i - 1 of each convex corner (i, j),
        taking that column to level j + 1."""
        concave = [(0, self.y(0))]
        convex = []
        for r in range(len(self.ys)):
            if self.y(r) < self.y(r + 1):
                convex.append((r + 1, self.y(r)))
                concave.append((r + 1, self.y(r + 1)))
        return concave, convex

    def _with(self, i: int, v: int) -> "ExtendedYoungDiagram":
        return ExtendedYoungDiagram(self.charge, self.ys[:i] + (v,) + self.ys[i + 1:])

    def additions(self):
        """All single-box additions, as (column, new diagram) pairs."""
        return [(i, self._with(i, j - 1)) for i, j in self.corners()[0]]

    def removals(self):
        """All single-box removals, as (column, new diagram) pairs."""
        return [(i - 1, self._with(i - 1, j + 1)) for i, j in self.corners()[1]]

    def __repr__(self):
        return f"EYD(charge={self.charge}, ys={list(self.ys)})"


def eyd_term_index(ctx: Context, k: int, s: int, i: int, j: int) -> tuple[int, int]:
    """(occurrence index, color) of the form term attached to corner (i, j)."""
    return s + ctx.shift(k, i + j) + min(k - j, i), ctx.fold(i + j)


def eyd_form(ctx: Context, k: int, diagram: ExtendedYoungDiagram, s: int) -> LinearForm:
    concave, convex = diagram.corners()
    return _form(ctx, [(*eyd_term_index(ctx, k, s, i, j), sign)
                       for sign, pts in ((1, concave), (-1, convex)) for i, j in pts])


# --------------------------------------------------------------------------------
# revised extended Young diagrams
# --------------------------------------------------------------------------------


class RevisedEYD(_Shape):
    """Two-sided profile stored as deviations from the ground profile
    ``charge + min(t, 0)``; always strictly below ground where stored.

    One legality rule governs every move: entry ``t`` may sit at level ``v``
    when ``v`` is at most the ground level at ``t`` and the steps to both
    neighbours are permitted (:meth:`_fits`).  Decrements, increments and
    both point lists apply it and nothing else.
    """

    __slots__ = ("charge", "devs", "_at")

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

    def _key(self):
        return self.charge, self.devs

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
        so it lies in ``lo .. hi``, and a removable point, reported one right
        of its increment, at most at ``hi + 1``.
        """
        lo, hi = (self.devs[0][0], self.devs[-1][0]) if self.devs else (0, 0)
        return range(min(lo, 0) - 1, max(hi, 0) + 2)

    def _low(self, ctx: Context, t: int) -> bool:
        """Whether ``charge + t`` is a low residue of the folded pattern: 0,
        and n for D2."""
        r = (self.charge + t) % ctx.fold_period
        return r == 0 or (ctx.machinery == "D2" and r == ctx.n)

    def _step_ok(self, ctx: Context, t: int, a: int, b: int) -> bool:
        """Whether consecutive levels a = y_t, b = y_{t+1} are permitted."""
        if not self._low(ctx, t):
            return b == a or b == a + 1
        if t > 0:
            return b >= a
        if t < 0:
            return b <= a + 1
        return True  # a turning residue at t=0 (only D2 charge n) is unconstrained

    def _fits(self, ctx: Context, i: int, v: int) -> bool:
        """Whether entry i may sit at level v, its neighbours unchanged."""
        return (
            v <= self.ground(i)
            and self._step_ok(ctx, i - 1, self.y(i - 1), v)
            and self._step_ok(ctx, i, v, self.y(i + 1))
        )

    def _double(self, ctx: Context, j: int, restored: bool) -> bool:
        """Whether the point at entry j counts twice.

        A lowered point (step up on its left, flat on its right) doubles at a
        low residue for j > 0 and at an up residue (one above a low one) for
        j < 0; a restored point (flat on its left, step up on its right) does
        the reverse.
        """
        if j == 0 or ctx.fold(j + self.charge) not in ctx.specials:
            return False
        a, b, c = self.y(j - 1), self.y(j), self.y(j + 1)
        if not (a == b < c if restored else a < b == c):
            return False
        return self._low(ctx, j if (j > 0) != restored else j - 1)

    def _with(self, t: int, v: int) -> "RevisedEYD":
        devs = dict(self._at)
        if v == self.ground(t):
            devs.pop(t, None)
        else:
            devs[t] = v
        return RevisedEYD(self.charge, devs)

    def dec(self, ctx: Context, i: int) -> "RevisedEYD | None":
        v = self.y(i) - 1
        return self._with(i, v) if self._fits(ctx, i, v) else None

    def inc(self, ctx: Context, i: int) -> "RevisedEYD | None":
        v = self.y(i) + 1
        return self._with(i, v) if self._fits(ctx, i, v) else None

    def admissible_points(self, ctx: Context):
        """Valid decrements as (index, level, color, double) tuples."""
        return [(i, self.y(i), ctx.fold(i + self.charge), self._double(ctx, i, False))
                for i in self._scan() if self._fits(ctx, i, self.y(i) - 1)]

    def removable_points(self, ctx: Context):
        """Valid increments at i-1, reported at index i, as (i, level, color,
        double) with level the entry being restored."""
        return [(i, self.y(i - 1), ctx.fold(i + self.charge - 1),
                 self._double(ctx, i - 1, True))
                for i in self._scan() if self._fits(ctx, i - 1, self.y(i - 1) + 1)]

    def __repr__(self):
        return f"RevisedEYD(charge={self.charge}, devs={dict(self.devs)})"


def reyd_adm_index(ctx: Context, k: int, s: int, i: int, level: int) -> tuple[int, int]:
    """(occurrence index, color) of the form term of the point at entry i."""
    return s + ctx.shift(k, i + k) + min(i, 0) + k - level, ctx.fold(i + k)


def reyd_form(ctx: Context, k: int, shape: RevisedEYD, s: int) -> LinearForm:
    adm = [(reyd_adm_index(ctx, k, s, i, level)[0], color, 2 if double else 1)
           for i, level, color, double in shape.admissible_points(ctx)]
    rem = [(reyd_adm_index(ctx, k, s, i - 1, level)[0], color, -2 if double else -1)
           for i, level, color, double in shape.removable_points(ctx)]
    return _form(ctx, adm + rem)


# --------------------------------------------------------------------------------
# Young walls
# --------------------------------------------------------------------------------

class YoungWall(_Shape):
    """Columns of filled slot counts (>= 1 everywhere; trailing ground columns
    implied), weakly decreasing, no two full columns of equal height.

    One legality rule governs every move: column ``i >= 0`` may hold ``c`` slots
    when ``c >= 1``, ``c`` lies weakly between its neighbours, and a full
    column is not level with a neighbour (:meth:`_fits`).  Single moves
    change one column by one slot; a pair move fills or empties both halves
    of a special band at once and applies the same rule at two slots.
    """

    __slots__ = ("charge", "cols")

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

    def _key(self):
        return self.charge, self.cols

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

    def _fits(self, ctx: Context, i: int, c: int) -> bool:
        """Whether column i >= 0 may hold c slots, its neighbours unchanged."""
        left = self.col(i - 1) if i > 0 else None
        right = self.col(i + 1)
        if i < 0 or c < 1 or c < right or (left is not None and c > left):
            return False
        return not (self._full(ctx, c) and c in (left, right))

    def _make(self, i: int, count: int) -> "YoungWall":
        cols = list(self.cols) + [1] * (i + 1 - len(self.cols))
        cols[i] = count
        return YoungWall(self.charge, cols)

    def add(self, ctx: Context, i: int) -> "YoungWall | None":
        c = self.col(i) + 1
        return self._make(i, c) if self._fits(ctx, i, c) else None

    def remove(self, ctx: Context, i: int) -> "YoungWall | None":
        c = self.col(i) - 1
        return self._make(i, c) if self._fits(ctx, i, c) else None

    def admissible_slots(self, ctx: Context):
        """(column, band, color, double) for each place a block may enter.

        A slot where both halves of a special band fit as a pair counts once,
        as double; otherwise a valid single addition counts as single.
        """
        out = []
        for i in range(len(self.cols) + 1):
            c = self.col(i)
            band, color, half = ctx.wall_slot(self.charge, c)
            if half == 0 and self._fits(ctx, i, c + 2):
                out.append((i, band, color, True))
            elif self._fits(ctx, i, c + 1):
                out.append((i, band, color, False))
        return out

    def removable_blocks(self, ctx: Context):
        """(column, band, color, double) for each top block that may leave;
        every stored column holds at least two slots, so each has a top block."""
        out = []
        for i, c in enumerate(self.cols):
            band, color, half = ctx.wall_slot(self.charge, c - 1)
            if half == 1 and self._fits(ctx, i, c - 2):
                out.append((i, band, color, True))
            elif self._fits(ctx, i, c - 1):
                out.append((i, band, color, False))
        return out

    def __repr__(self):
        return f"YoungWall(charge={self.charge}, cols={list(self.cols)})"


def wall_form(ctx: Context, k: int, wall: YoungWall, s: int) -> LinearForm:
    adm = [(s + ctx.wall_shift(k, band) + i, color, 2 if double else 1)
           for i, band, color, double in wall.admissible_slots(ctx)]
    rem = [(s + ctx.wall_shift(k, band) + i + 1, color, -2 if double else -1)
           for i, band, color, double in wall.removable_blocks(ctx)]
    return _form(ctx, adm + rem)


# --------------------------------------------------------------------------------
# shape family dispatch
# --------------------------------------------------------------------------------


def shape_kind(ctx: Context, k: int) -> str:
    """Which shape family indexes color k's inequalities."""
    if ctx.machinery in ("A1", "C1"):
        return "eyd"
    return "wall" if k in ctx.specials else "reyd"


_SHAPE_CLASS = {"eyd": ExtendedYoungDiagram, "reyd": RevisedEYD, "wall": YoungWall}


def ground_shape(ctx: Context, k: int):
    """The empty shape of color k's family: charge k, nothing added."""
    return _SHAPE_CLASS[shape_kind(ctx, k)](k)


def shape_form(ctx: Context, k: int, shape, s: int) -> LinearForm:
    if isinstance(shape, ExtendedYoungDiagram):
        return eyd_form(ctx, k, shape, s)
    if isinstance(shape, RevisedEYD):
        return reyd_form(ctx, k, shape, s)
    return wall_form(ctx, k, shape, s)


def shape_children(ctx: Context, shape):
    if isinstance(shape, ExtendedYoungDiagram):
        return [t for _, t in shape.additions()]
    if isinstance(shape, RevisedEYD):
        kids = (shape.dec(ctx, i) for i in shape._scan())
    else:
        kids = (shape.add(ctx, i) for i in range(len(shape.cols) + 1))
    return [t for t in kids if t is not None]


def enumerate_shapes(ctx: Context, k: int, s: int, bound: int):
    """BFS over single additions from the ground shape, quotiented by form:
    expands one representative shape per distinct form at offset ``s`` whose
    positions stay inside the bound.  Returns (frozenset of the distinct
    forms, converged flag); the ground shape's form is always among them.
    The node cap counts distinct forms.  Nothing is cached between calls.

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
    ground = ground_shape(ctx, k)
    ground_form = shape_form(ctx, k, ground, s)
    forms = {ground_form}
    queue = deque([(ground, ground_form.max_pos())])
    converged = True
    while queue:
        shape, top = queue.popleft()
        for child in shape_children(ctx, shape):
            form = shape_form(ctx, k, child, s)
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
            queue.append((child, last))
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
    return _form(ctx, ((ctx.shift(k, hi), hi_color, hi_coeff),
                       (1 + ctx.shift(k, lo), lo_color, -lo_coeff)))


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
    const = lam.get(k, 0)
    case = comb_lambda_case(ctx, k)
    if case == "singleton":
        return frozenset({LinearForm(const, {ctx.first_pos(k): -1})}), True
    if case in ("left", "right"):
        fam = _ladder_family(ctx, k, window, case)
        return frozenset(LinearForm(const) + f for f in fam), True
    forms, converged = enumerate_shapes(ctx, k, 0, window)
    # at offset 0 every point of the ground shape lies at occurrence index
    # below 1, so its form is the zero form; no other shape has that form
    return frozenset(LinearForm(const) + f for f in forms if f != LinearForm.ZERO), converged


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
