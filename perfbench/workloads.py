"""Workload definitions: the items one pass runs, built from a seed.

Each workload is a list of items run in a closed loop by one caller: an item
starts only after the previous one returned.  An item runs both sides of one
check and returns ``(agree, canonical)``: whether the sides agree, and the
canonical text of its output, whose sha256 is compared with the digest
recorded for the default seed.

The library is always reached through module attributes
(``inequalities.membership_family(...)``), never through names bound at
import time, so that the traced run sees every call.

Sizes: ``full`` is the measured benchmark, ``tiny`` is the self-test.
"""

from __future__ import annotations

import json
import os

from crystal_poly import cartan, crystal, inequalities, oracle, shapes

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
DEFAULT_WORDS = [("A1", (2, 1, 3)), ("A2", (2, 1, 3)), ("C1", (1, 2, 3)), ("D2", (1, 2, 3))]
OMEGA1 = {1: 1}
OMEGA12 = {1: 1, 2: 1}

# Windows are cut from the gate's (12 / 6 for reyd, 9 for the limit family)
# so that one pass takes a few seconds and a run can take the median of
# several passes.  Shape enumeration still does over 90 % of the work.
FAMILY_WINDOWS = {"full": (7, 4, 4), "tiny": (4, 3, 3)}  # (eyd/wall, reyd, limit)
CROSSCHECK_DEPTH = {"full": 4, "tiny": 2}
SUPPORT_BUCKETS = ((3, 4, 5), (6, 7, 8), (9, 10))


def contexts(workload: str, size: str) -> dict:
    """The Contexts a workload needs, keyed by (family, word)."""
    words = GRID8 if workload == "families" else DEFAULT_WORDS
    if size == "tiny":
        words = words[:1]
    return {(fam, word): cartan.Context(fam, 3, word) for fam, word in words}


def _tag(fam, word) -> str:
    return fam + "".join(map(str, word))


def _lam_text(lam) -> str:
    return "inf" if lam is None else ",".join(f"{k}:{v}" for k, v in sorted(lam.items()))


def _form_text(ctx, forms) -> str:
    ordered = inequalities.sorted_forms(forms)
    return json.dumps([f.to_json(ctx) for f in ordered], sort_keys=True, separators=(",", ":"))


class Item:
    """One unit of work: an id naming its inputs, a callable running it, and
    the slot it fills in every pass (its id, unless the inputs are drawn
    afresh each pass)."""

    __slots__ = ("id", "run", "slot")

    def __init__(self, item_id: str, run, slot: str | None = None):
        self.id = item_id
        self.run = run
        self.slot = item_id if slot is None else slot


# ---- families ---------------------------------------------------------------


def _family_item(ctx, windows, w_limit):
    """One grid word: for each weight and color, the boundary closure against
    the shape family; then the limit closure against the limit family."""

    def run():
        agree, out = True, []
        for lam in (OMEGA1, OMEGA12):
            for k, window in zip(ctx.colors(), windows):
                clo = inequalities.boundary_closure_for_color(ctx, lam, k, window)
                family, converged = shapes.comb_lambda(ctx, lam, k, window)
                full = family | {inequalities.LinearForm.ZERO}
                agree = agree and clo.converged and converged and clo.within(window) == full
                out.append(_form_text(ctx, full))
        family, converged = shapes.comb_infinity(ctx, w_limit)
        clo = inequalities.limit_inequalities(ctx, w_limit)
        zero = {inequalities.LinearForm.ZERO}
        agree = agree and clo.converged and converged and set(family) == clo.within(w_limit) - zero
        out.append(_form_text(ctx, family))
        return agree, "\n".join(out)

    return run


def families(ctxs, size, rng):
    w_plain, w_reyd, w_limit = FAMILY_WINDOWS[size]
    items = []
    for (fam, word), ctx in ctxs.items():
        windows = [w_reyd if shapes.shape_kind(ctx, k) == "reyd" else w_plain
                   for k in ctx.colors()]
        item_id = f"{_tag(fam, word)}|w={','.join(map(str, windows))}|limit={w_limit}"
        items.append(Item(item_id, _family_item(ctx, windows, w_limit)))
    rng.shuffle(items)
    return items


# ---- crosscheck -------------------------------------------------------------


def _crosscheck_item(ctx, lam, depth):
    def run():
        report = oracle.crosscheck_membership(ctx, lam, depth)
        report.pop("seconds")
        return bool(report["matched"]), json.dumps(report, sort_keys=True)

    return run


def crosscheck(ctxs, size, rng):
    depth = CROSSCHECK_DEPTH[size]
    items = []
    for (fam, word), ctx in ctxs.items():
        for lam in (None, OMEGA1):
            item_id = f"{_tag(fam, word)}|lam={_lam_text(lam)}|depth={depth}"
            items.append(Item(item_id, _crosscheck_item(ctx, lam, depth)))
    rng.shuffle(items)
    return items


# ---- queries ----------------------------------------------------------------


def draw_vector(ctx, rng, max_pos: int, bump: bool):
    """A random reachable limit-crystal vector whose last position is
    ``max_pos``; with ``bump``, one of its entries is raised by one."""
    ops = crystal.CrystalOps(ctx, None)
    while True:
        x = oracle.random_reachable(ops, rng, rng.randint(max_pos // 2, 2 * max_pos))
        if x.max_pos() == max_pos:
            break
    if bump:
        x = x.with_delta(rng.choice(sorted(x.positions())), 1)
    return x


def _vector_text(x) -> str:
    return "[" + ",".join(map(str, x.to_tuple(x.max_pos()))) + "]"


# Last position of the queries of each word, one per support bucket (3-5,
# 6-8, 9-10).  Fixed, like the bump pattern, so that every seed gets the same
# work mix; the seed draws only the vectors and the bumped entry.
QUERY_SUPPORTS = {"A1": (3, 6, 9), "A2": (4, 7, 9), "C1": (5, 8, 9), "D2": (4, 7, 10)}


def query_inputs(ctxs, rng):
    """The query stream: every (word, lambda) config once per support bucket,
    in a fixed order.  Half of the queries are bumped: those of word j in
    bucket b when j + b is odd.  Returns (key, lambda, vector, bumped,
    member) tuples."""
    out = []
    for j, (key, ctx) in enumerate(ctxs.items()):
        for b, max_pos in enumerate(QUERY_SUPPORTS[key[0]]):
            bumped = (j + b) % 2 == 1
            for lam in (None, OMEGA1):
                x = draw_vector(ctx, rng, max_pos, bumped)
                member = oracle.reaches_origin(crystal.CrystalOps(ctx, lam), x)
                out.append((key, lam, x, bumped, member))
    return out


def _query_item(ctx, lam, x, with_eps):
    """Membership by forms against the operators; for an unbumped vector (a
    limit-crystal member by construction) also the starred values of every
    color, forms against the oracle."""

    def run():
        support = max(x.max_pos(), ctx.n)
        forms, converged = inequalities.membership_family(ctx, lam, support, margin_periods=2)
        member, witness = inequalities.membership(forms, x)
        reached = oracle.reaches_origin(crystal.CrystalOps(ctx, lam), x)
        agree = converged and member == reached
        answer = {"member": member, "witness": None if witness is None else witness.render(ctx)}
        if with_eps:
            eps_forms = [inequalities.epsilon_star_forms(ctx, x, k) for k in ctx.colors()]
            eps_oracle = [oracle.epsilon_star_oracle(ctx, x, k) for k in ctx.colors()]
            agree = agree and eps_forms == eps_oracle
            answer["epsilon_star"] = eps_forms
        return agree, json.dumps(answer, sort_keys=True)

    return run


def queries(ctxs, inputs):
    items = []
    for key, lam, x, bumped, _ in inputs:
        fam, word = key
        slot = f"{_tag(fam, word)}|lam={_lam_text(lam)}|support={x.max_pos()}"
        item_id = f"{_tag(fam, word)}|lam={_lam_text(lam)}|x={_vector_text(x)}"
        items.append(Item(item_id, _query_item(ctxs[key], lam, x, not bumped), slot))
    return items


def query_properties(inputs) -> dict:
    """Workload properties of a query stream, the bases for cache claims."""
    hist = {b: 0 for b in SUPPORT_BUCKETS}
    for _, _, x, _, _ in inputs:
        for b in SUPPORT_BUCKETS:
            if x.max_pos() in b:
                hist[b] += 1
    return {
        "queries.member_share": sum(1 for q in inputs if q[4]) / len(inputs),
        "queries.eps_share": sum(1 for q in inputs if not q[3]) / len(inputs),
        "queries.support_3_5": hist[SUPPORT_BUCKETS[0]],
        "queries.support_6_8": hist[SUPPORT_BUCKETS[1]],
        "queries.support_9_10": hist[SUPPORT_BUCKETS[2]],
    }


# ---- cli --------------------------------------------------------------------


def _config_file(cfg_dir, fam, word, lam) -> str:
    cfg = {"family": fam, "n": 3, "iota_word": list(word)}
    if lam is not None:
        cfg["lambda"] = {str(k): v for k, v in lam.items()}
    path = os.path.join(cfg_dir, f"{_tag(fam, word)}-{_lam_text(lam)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def cli_script(ctxs, size, rng, cfg_dir):
    """(id, argv, expected exit code) of each invocation, in script order.

    ``check`` runs at growing support on vectors drawn from the seed; its
    expected exit code comes from the operator oracle, computed here, before
    timing.  Every other invocation is fixed and must exit 0.
    """
    os.makedirs(cfg_dir, exist_ok=True)
    a1, a2, c1 = ("A1", (2, 1, 3)), ("A2", (2, 1, 3)), ("C1", (1, 2, 3))
    if size == "tiny":
        cfg = _config_file(cfg_dir, *a1, None)
        x = draw_vector(ctxs[a1], rng, 4, False)
        return [
            ("gen-ineq|sprime|A1213|w=3", ["--config", cfg, "gen-ineq", "--mode", "sprime", "--window", "3"], 0),
            (f"epsilon-star|A1213|x={_vector_text(x)}",
             ["--config", cfg, "epsilon-star", "--method", "both", "--vector", _vector_text(x)], 0),
            ("enumerate|A1213|depth=4", ["--config", cfg, "enumerate", "--depth", "4"], 0),
        ]
    a1_inf = _config_file(cfg_dir, *a1, None)
    a1_w1 = _config_file(cfg_dir, *a1, OMEGA1)
    a2_w1 = _config_file(cfg_dir, *a2, OMEGA1)
    c1_w1 = _config_file(cfg_dir, *c1, OMEGA1)
    script = [
        ("gen-ineq|sprime|A1213|w=9", ["--config", a1_inf, "gen-ineq", "--mode", "sprime", "--window", "9"], 0),
        ("gen-ineq|comb-limit|A1213|w=8", ["--config", a1_inf, "gen-ineq", "--mode", "comb-limit", "--window", "8"], 0),
        ("gen-ineq|shat|A1213|lam=1:1|w=9", ["--config", a1_w1, "gen-ineq", "--mode", "shat", "--window", "9"], 0),
        ("gen-ineq|comb|A1213|lam=1:1|w=7", ["--config", a1_w1, "gen-ineq", "--mode", "comb", "--window", "7"], 0),
    ]
    ops = crystal.CrystalOps(ctxs[a2], OMEGA1)
    for max_pos, bumped in ((4, False), (7, True), (9, False)):
        x = draw_vector(ctxs[a2], rng, max_pos, bumped)
        expected = 0 if oracle.reaches_origin(ops, x) else 1
        script.append((f"check|A2213|lam=1:1|x={_vector_text(x)}",
                       ["--config", a2_w1, "check", "--vector", _vector_text(x)], expected))
    x = draw_vector(ctxs[a1], rng, 7, False)
    script += [
        (f"epsilon-star|A1213|x={_vector_text(x)}",
         ["--config", a1_inf, "epsilon-star", "--method", "both", "--vector", _vector_text(x)], 0),
        ("crosscheck|C1123|lam=1:1|depth=4", ["--config", c1_w1, "crosscheck", "--depth", "4"], 0),
        ("enumerate|A1213|depth=14", ["--config", a1_inf, "enumerate", "--depth", "14"], 0),
    ]
    return script


def _cli_item(argv, expected, invoke):
    def run():
        proc = invoke(argv)
        stdout = proc.stdout
        if argv[2] == "crosscheck":  # the report's timing is not part of the answer
            report = json.loads(stdout)
            report.pop("seconds")
            stdout = json.dumps(report, sort_keys=True)
        return proc.returncode == expected, f"{stdout}\nexit={proc.returncode}"

    return run


def cli(ctxs, size, rng, cfg_dir, invoke):
    return [Item(item_id, _cli_item(argv, expected, invoke))
            for item_id, argv, expected in cli_script(ctxs, size, rng, cfg_dir)]
