"""Command-line interface.

All subcommands read a JSON config file holding the family code, the rank
``n``, the adapted word ``iota_word`` (one period, leftmost entry applied
first), and optionally a dominant weight ``lambda`` as a color-to-multiplicity
mapping.  When ``lambda`` is absent or null, vector commands act on the limit
crystal.

Only ``cartan`` and ``crystal`` are imported here; each subcommand imports
the modules it runs (``inequalities``, ``shapes``, ``oracle``), so a process
compiles no module its command never calls.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import Context, weight_from_config
from .crystal import CrystalOps, ZVector


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict, refusing a key given twice (plain
    ``json.load`` would keep the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} is not a JSON object")
    missing = [key for key in ("family", "n", "iota_word") if key not in cfg]
    if missing:
        raise ValueError(f"config {path} lacks {', '.join(missing)}")
    word, lam = cfg["iota_word"], cfg.get("lambda")
    # JSON true/false load as bool, a subclass of int: refuse them by type
    if type(cfg["n"]) is not int:
        raise ValueError(f"config {path}: n must be an integer")
    if not (isinstance(word, list) and all(type(c) is int for c in word)):
        raise ValueError(f"config {path}: iota_word must be a list of integers")
    if not (lam is None or isinstance(lam, dict)
            and all(type(v) is int for v in lam.values())):
        raise ValueError(f"config {path}: lambda must map colors to integers")
    return cfg


def _forms_payload(ctx: Context, meta: dict, forms, converged: bool) -> dict:
    from .inequalities import sorted_forms

    ordered = sorted_forms(forms)
    payload = dict(meta)
    payload["converged"] = bool(converged)
    payload["count"] = len(ordered)
    payload["forms"] = [{**f.to_json(ctx), "text": f.render(ctx)} for f in ordered]
    return payload


def cmd_gen_ineq(ctx: Context, lam: dict, args) -> int:
    window, mode, k = args.window, args.mode, args.k
    if mode == "sprime":
        from .inequalities import limit_inequalities, offset_closure_for_color

        res = (
            limit_inequalities(ctx, window)
            if k is None
            else offset_closure_for_color(ctx, k, window)
        )
        forms, converged = res.within(window), res.converged
    elif mode == "shat":
        from .inequalities import boundary_closure_for_color, weight_inequalities

        res = (
            weight_inequalities(ctx, lam, window)
            if k is None
            else boundary_closure_for_color(ctx, lam, k, window)
        )
        forms, converged = res.within(window), res.converged
    else:
        from .shapes import comb_infinity, comb_lambda, weight_family

        if mode == "comb-limit":
            forms, converged = comb_infinity(ctx, window)
        elif k is None:
            forms, converged = weight_family(ctx, lam, window)
        else:
            forms, converged = comb_lambda(ctx, lam, k, window)
    meta = {
        "family": ctx.family,
        "n": ctx.n,
        "iota_word": list(ctx.word),
        "lambda": {str(c): v for c, v in sorted(lam.items())},
        "mode": mode,
        "k": k,
        "window": window,
    }
    text = json.dumps(_forms_payload(ctx, meta, forms, converged), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if converged else 2


def _verdict(ctx: Context, lam, x: ZVector, margin: int):
    """x against the membership family: ``(family, support, witness text or None)``."""
    from .inequalities import membership, membership_family, node_cap_error

    support = max(x.max_pos(), ctx.n)
    family, converged = membership_family(ctx, lam, support, margin)
    if not converged:
        raise node_cap_error(support, family)
    ok, form = membership(family, x)
    return family, support, None if ok else f"{form.render(ctx)} evaluates to {form.evaluate(x)}"


def cmd_check(ctx: Context, lam: dict | None, args) -> int:
    x = ZVector.parse(args.vector, ctx)
    if not x.nonnegative():
        print("not a member: negative entry")
        return 1
    family, support, witness = _verdict(ctx, lam, x, 2)
    if witness is None:
        print(f"member ({len(family)} forms checked, support {support})")
        return 0
    print(f"not a member: {witness}")
    return 1


def cmd_enumerate(ctx: Context, lam: dict | None, args) -> int:
    from .oracle import weight_graded_counts

    counts = weight_graded_counts(CrystalOps(ctx, lam), args.depth)
    # each lowering step adds one to the entry sum, so depth d is entry sum d
    by_depth = [0] * (args.depth + 1)
    for w, c in counts.items():
        by_depth[sum(w)] += c
    for d, c in enumerate(by_depth):
        print(f"depth {d}: {c}")
    print(f"total: {sum(by_depth)}")
    for w in sorted(counts):
        print("colors " + ",".join(map(str, w)) + f": {counts[w]}")
    return 0


def cmd_epsilon_star(ctx: Context, args) -> int:
    x = ZVector.parse(args.vector, ctx)
    if args.method == "forms" and x.nonnegative():
        # every closure form is a valid inequality: a negative one proves x
        # lies outside the limit crystal, where no starred value is defined
        witness = _verdict(ctx, None, x, 0)[2]
        if witness is not None:
            raise ValueError(f"vector is outside the limit crystal: {witness}")
    methods = {}
    if args.method in ("forms", "both"):
        from .inequalities import epsilon_star_forms

        methods["forms"] = epsilon_star_forms
    if args.method in ("oracle", "both"):
        from .oracle import epsilon_star_oracle

        methods["oracle"] = epsilon_star_oracle
    ks = [args.k] if args.k is not None else list(ctx.colors())
    disagree = False
    lines = []
    for k in ks:
        entry = {method: run(ctx, x, k) for method, run in methods.items()}
        if len(entry) == 2 and entry["forms"] != entry["oracle"]:
            disagree = True
        lines.append(f"k={k}: " + " ".join(f"{m}={v}" for m, v in entry.items()))
    print("\n".join(lines))
    return 1 if disagree else 0


def cmd_crosscheck(ctx: Context, lam: dict, args) -> int:
    from .oracle import crosscheck_membership

    report = crosscheck_membership(ctx, lam, args.depth, args.window)
    print(json.dumps(report, indent=2))
    return 0 if report["matched"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crystal-poly",
        description="Polyhedral realizations of affine crystals: inequality "
        "generation, membership, enumeration, and cross-checks.",
    )
    ap.add_argument(
        "--config",
        required=True,
        help="JSON config: family, n, iota_word, optional lambda",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-ineq", help="emit defining inequalities as JSON")
    g.add_argument(
        "--mode",
        choices=["sprime", "shat", "comb", "comb-limit"],
        default="comb",
        help="rewriting closure (sprime/shat) or closed forms (comb*)",
    )
    g.add_argument("--window", type=int, required=True, help="largest position kept")
    g.add_argument("--k", type=int, help="restrict to one color's family")
    g.add_argument("--out", help="write JSON here instead of stdout")

    c = sub.add_parser("check", help="test membership of a vector")
    c.add_argument("--vector", required=True, help="[a1,a2,...] or {(s,k): v}")

    e = sub.add_parser("enumerate", help="count elements by depth and color totals")
    e.add_argument("--depth", type=int, required=True)

    s = sub.add_parser("epsilon-star", help="starred string values of a vector")
    s.add_argument("--vector", required=True)
    s.add_argument("--k", type=int, help="single color (default: all)")
    s.add_argument("--method", choices=["forms", "oracle", "both"], default="both")

    x = sub.add_parser(
        "crosscheck", help="exhaustive membership comparison against the operators"
    )
    x.add_argument("--depth", type=int, required=True)
    x.add_argument("--window", type=int, help="force a generation window")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        ctx = Context.from_config(cfg)
        lam = None if cfg.get("lambda") is None else weight_from_config(cfg)
        if lam and not set(lam) <= set(ctx.colors()):
            raise ValueError(f"lambda colors {sorted(lam)} must lie in 1..{ctx.n}")
        if getattr(args, "k", None) not in (None, *ctx.colors()):
            raise ValueError(f"--k {args.k} must lie in 1..{ctx.n}")
        if getattr(args, "mode", None) == "comb-limit" and args.k is not None:
            raise ValueError("--k does not apply to --mode comb-limit")
        for name in ("depth", "window"):
            if (getattr(args, name, None) or 0) < 0:
                raise ValueError(f"--{name} must be nonnegative")
        if args.command == "gen-ineq":
            return cmd_gen_ineq(ctx, lam or {}, args)
        if args.command == "check":
            return cmd_check(ctx, lam, args)
        if args.command == "enumerate":
            return cmd_enumerate(ctx, lam, args)
        if args.command == "epsilon-star":
            return cmd_epsilon_star(ctx, args)
        return cmd_crosscheck(ctx, lam, args)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
