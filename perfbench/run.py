"""crystal-poly benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py`` says what each item does):

* ``families``   -- boundary closures vs shape families over the 8-word grid;
* ``crosscheck`` -- the exhaustive membership oracle for the 4 default words;
* ``queries``    -- one-vector membership and starred-value questions;
* ``cli``        -- a script of ``python -m crystal_poly`` invocations.

A run spawns fresh single-threaded worker processes, one at a time.  Five
set-up probes only import the package and build the Contexts; then passes
run the workload's item set in a closed loop (one caller, each item issued
after the previous returned), until ``--seconds`` is used up and at least
three passes ran.  Each untraced pass of families, crosscheck and queries
draws afresh from the seed and its round (a new item order, a new query
stream); a traced run repeats round 0, and cli runs one script per run.
Every pass checks both sides of every item and the per-item sha256 digest
recorded for the default seed (``digests.json``).

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass wall time, CPU time and peak RSS; the median set-up time; the
geometric mean and the mean of the slowest fifth of the items' median
latencies (an item is one query slot, one grid word, one crosscheck or one
CLI invocation).  Every time is in
reference seconds: raw time scaled by the host speed sampled while it ran,
so that the drift of a shared host does not read as a change of the code
(``speed.py``); the raw times are in the run record.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``layers.json`` from the traced passes, in raw seconds; end-to-end numbers
never come from a traced pass.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record with the run metadata and every
pass goes to ``.bench_out/``.  Refuses to run (exit 2, no result) when the
package sources are missing or ``CRYSTAL_POLY_NODE_CAP`` is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "crystal_poly"
WORKLOADS = ("families", "crosscheck", "queries", "cli")
DEFAULT_SEED = 1
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 150  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_gmean_ms": "ms",
    "query_tail_ms": "ms",
}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def item_latency_summary(passes):
    """Geometric mean and tail mean over the items of the run, each item
    taken at its median latency over the passes that ran it.

    Passes repeat the same items, so pooling their samples would weigh each
    item by the number of passes a run happened to fit; per-item medians do
    not.  A queries pass asks a fresh vector in each of its fixed slots (word,
    weight, support), and there the slot is the item.  Latencies are
    multi-modal (a queries stream is about half cheap short-support and half
    costly long-support queries), so a percentile falls between clusters and
    jumps with the drawn inputs; the geometric mean and the mean of the
    slowest fifth (at least two items) do not.
    """
    by_slot = {}
    for p in passes:
        for slot, lat in zip(p["item_slots"], p["latencies_s"]):
            by_slot.setdefault(slot, []).append(lat)
    per_item = sorted(statistics.median(lat) for lat in by_slot.values())
    tail = per_item[-max(2, math.ceil(len(per_item) / 5)):]
    return statistics.geometric_mean(per_item), statistics.fmean(tail)


# ---- workers ------------------------------------------------------------------


def spawn(args, env, out_dir, tag, traced=False, setup_only=False, round_no=0):
    """Run one worker; return ((set-up reference seconds, raw seconds), pass
    record or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(traced)),
           "--out-dir", str(out_dir), "--tag", tag, "--round", str(round_no)]
    if setup_only:
        cmd.append("--setup-only")
    if args.inject_bad_digest:
        cmd.append("--inject-bad-digest")
    sampler = speed.Sampler()
    sampler.start()
    proc = None
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        first = proc.stdout.readline()
        t_ready = perf_counter()
        sampler.stop()
        rest = proc.stdout.read()
    finally:
        sampler.stop()
        if proc is not None:
            proc.stdout.close()
            code = proc.wait()
    if first.strip() != "ready":
        return None, None
    # The kernel shares the core with the starting worker and is left in its
    # set-up time: a constant share (one 1 ms call each 25 ms) on every commit.
    raw_s = t_ready - t0
    ready_s = (speed.reference(raw_s, sampler.window(t0, t_ready)[1]), raw_s)
    if setup_only:
        return ready_s, None
    lines = rest.strip().splitlines()
    if code != 0 or not lines:
        return ready_s, None
    record = json.loads(lines[-1])
    record["traced"] = traced
    record["loadavg_after"] = _loadavg()
    return ready_s, record


def run_passes(args, env, out_dir):
    """Set-up probes, then passes until the run's seconds are used up."""
    setup, passes, crashed = [], [], 0
    for i in range(SETUP_PROBES):
        ready_s, _ = spawn(args, env, out_dir, f"setup{i}", setup_only=True)
        if ready_s is None:
            crashed += 1
        else:
            setup.append(ready_s)
    kinds = (False, True) if args.trace else (False,)
    minimum = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    start, rounds, round_s = perf_counter(), 0, []
    while True:
        elapsed = perf_counter() - start
        est = statistics.median(round_s) if round_s else 0.0
        if rounds >= minimum and elapsed + est > args.seconds:
            break
        if rounds and elapsed + est > RUN_LIMIT_S:
            break
        t0 = perf_counter()
        for traced in kinds:
            # A traced run repeats round 0, whose exact counters must repeat.
            ready_s, record = spawn(args, env, out_dir, f"pass{len(passes)}", traced=traced,
                                    round_no=0 if args.trace else rounds)
            if ready_s is not None:
                setup.append(ready_s)
            if record is None:
                crashed += 1
            else:
                passes.append(record)
        rounds += 1
        round_s.append(perf_counter() - t0)
    return setup, passes, crashed


# ---- metrics ------------------------------------------------------------------


def end_to_end(setup, untraced):
    gmean, tail = item_latency_summary(untraced)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "setup_s": statistics.median(ref for ref, _ in setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "query_gmean_ms": 1000 * gmean,
        "query_tail_ms": 1000 * tail,
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(p):
    """Per-layer metrics of one traced pass, keyed as in ``layers.json``."""
    t = p["trace"]
    calls, counts, reused = t["calls"], t["counts"], t["reused"]
    incl, own, layer = t["incl_s"], t["self_by_name"], t["self_s"]

    def n(key):
        return calls.get(key, 0)

    def s(table, *keys):
        return sum(table.get(k, 0.0) for k in keys)

    props = p["properties"]
    counter_s = t["counter_s"] + layer.get("trace", 0.0)
    accounted = sum(layer.values()) + t["counter_s"]
    return {
        "cartan.context_s": p["context_s"] + s(incl, "cartan.__init__"),
        "cartan.self_s": layer.get("cartan", 0.0),
        "crystal.op_calls": n("crystal.apply_e") + n("crystal.apply_f"),
        "crystal.op_s": s(incl, "crystal.apply_e", "crystal.apply_f"),
        "crystal.self_s": layer.get("crystal", 0.0),
        "inequalities.closure_calls": n("inequalities._close"),
        "inequalities.closure_s": s(incl, "inequalities._close"),
        "inequalities.closure_forms": counts.get("inequalities.closure_forms", 0),
        "inequalities.closure_pruned": counts.get("inequalities.closure_pruned", 0),
        "inequalities.window_yield": _ratio(counts.get("inequalities.window_kept", 0),
                                            counts.get("inequalities.window_generated", 0)),
        "inequalities.membership_family_s": s(incl, "inequalities.membership_family"),
        "inequalities.membership_s": s(incl, "inequalities.membership"),
        "inequalities.membership_forms": counts.get("inequalities.membership_forms", 0),
        "inequalities.eps_forms_s": s(incl, "inequalities.epsilon_star_forms"),
        "inequalities.eps_window_reuse": _ratio(reused.get("eps_forms", 0),
                                                n("inequalities.epsilon_star_forms")),
        "inequalities.self_s": layer.get("inequalities", 0.0),
        "shapes.enumerate_calls": n("shapes.enumerate_shapes"),
        "shapes.enumerate_s": s(incl, "shapes.enumerate_shapes"),
        "shapes.visited": counts.get("shapes.visited", 0),
        "shapes.distinct_forms": counts.get("shapes.distinct_forms", 0),
        "shapes.shapes_per_form": _ratio(counts.get("shapes.visited", 0),
                                         counts.get("shapes.distinct_forms", 0)),
        "shapes.enumerate_key_reuse": _ratio(reused.get("enumerate_shapes", 0),
                                             n("shapes.enumerate_shapes")),
        "shapes.form_eval_s": s(own, "shapes.comb_lambda", "shapes.comb_infinity",
                                "shapes.weight_family"),
        "shapes.self_s": layer.get("shapes", 0.0),
        "oracle.crosscheck_self_s": s(own, "oracle.crosscheck_membership",
                                      "oracle._feasible_tuples", "oracle._candidate_matrix"),
        "oracle.candidates": counts.get("oracle.candidates", 0),
        "oracle.active_forms": counts.get("oracle.active_forms", 0),
        "oracle.feasible": counts.get("oracle.feasible", 0),
        "oracle.feasible_ratio": _ratio(counts.get("oracle.feasible", 0),
                                        counts.get("oracle.candidates", 0)),
        "oracle.margin_retries": n("oracle._feasible_tuples") - n("oracle.crosscheck_membership"),
        "oracle.candidate_key_reuse": _ratio(reused.get("candidate_matrix", 0),
                                             n("oracle._candidate_matrix")),
        "oracle.closure_s": s(incl, "oracle.generate_closure"),
        "oracle.closure_nodes": counts.get("oracle.closure_nodes", 0),
        "oracle.reach_s": s(incl, "oracle.reaches_origin"),
        "oracle.eps_oracle_s": s(incl, "oracle.epsilon_star_oracle"),
        "oracle.self_s": layer.get("oracle", 0.0),
        "cli.import_s": statistics.median(t["import_s"]) if t["import_s"] else 0.0,
        "cli.invocation_s": s(incl, "cli.process"),
        "cli.output_bytes": p["output_bytes"],
        "cli.self_s": layer.get("cli", 0.0),
        "bench.self_s": layer.get("bench", 0.0),
        "bench.inputgen_s": p["inputgen_s"],
        "bench.items": p["attempted"],
        "queries.member_share": props.get("queries.member_share", 0.0),
        "queries.eps_share": props.get("queries.eps_share", 0.0),
        "queries.support_3_5": props.get("queries.support_3_5", 0),
        "queries.support_6_8": props.get("queries.support_6_8", 0),
        "queries.support_9_10": props.get("queries.support_9_10", 0),
        "trace.wall_s": p["wall_s"],
        "trace.counter_s": counter_s,
        "trace.accounted_ratio": _ratio(accounted, p["wall_s"]),
        "trace.spans": t["spans"],
    }


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


# Per-layer metrics taken from the untraced passes of a --trace 1 run.
HOST_METRICS = {
    "trace.overhead_ratio": lambda u, t: _ratio(_median(t, "raw_wall_s"), _median(u, "raw_wall_s")),
    "host.raw_wall_s": lambda u, t: _median(u, "raw_wall_s"),
    "host.kernel_ms": lambda u, t: 1000 * _median(u, "kernel_mean_s"),
}


def per_layer(untraced, traced, spec):
    """Medians of the traced passes; exact counters must repeat exactly."""
    values = [layer_values(p) for p in traced]
    out, unstable = {}, []
    for name, meta in spec.items():
        if name in HOST_METRICS:
            out[name] = HOST_METRICS[name](untraced, traced)
            continue
        column = [v[name] for v in values]
        if meta["exact"]:
            if len(set(column)) > 1:
                unstable.append(name)
            out[name] = column[0]
        else:
            out[name] = statistics.median(column)
    return out, unstable


def load_layer_spec():
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["metrics"]}


# ---- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    ap.add_argument("--inject-bad-digest", action="store_true",
                    help="self-test: expect a wrong digest for the first item")
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    if "CRYSTAL_POLY_NODE_CAP" in os.environ:
        print("error: CRYSTAL_POLY_NODE_CAP is set; the benchmark runs at the default "
              "node cap only (the process-wide caches are not keyed by the cap)",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.setdefault("OMP_NUM_THREADS", "1")
    env.setdefault("OPENBLAS_NUM_THREADS", "1")

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "commit": _commit(), "src_sha256": _src_digest(), "loadavg_before": _loadavg(),
    }
    # One core for the run and every process it starts: a worker and the
    # CLI processes it waits for, or a starting worker and this process,
    # then run on the core whose speed the sampler measures (speed.py).
    meta["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["cpu"]})
    setup, passes, crashed = run_passes(args, env, out_dir)
    meta["loadavg_after"] = _loadavg()
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if passes:
        meta["numpy"] = passes[0]["numpy"]
        meta["node_cap"] = passes[0]["node_cap"]

    attempted = sum(p["attempted"] for p in passes) + crashed
    failed = sum(p["failed"] for p in passes) + crashed
    problems = [f"{crashed} worker(s) ended without a result"] if crashed else []
    metrics = {}
    if untraced and setup and (traced or not args.trace):
        if args.trace:
            spec = load_layer_spec()
            values, unstable = per_layer(untraced, traced, spec)
            problems += [f"exact counter {name} differs between passes" for name in unstable]
            metrics = {k: {"value": v, "unit": spec[k]["unit"]} for k, v in values.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in end_to_end(setup, untraced).items()}
    else:
        problems.append("no complete pass")
    for p in passes:
        problems += [f"{item}: {why}" for item, why in p["failures"]]

    correct = failed == 0 and not problems and bool(metrics)
    record = {"meta": meta, "setup_s": [ref for ref, _ in setup],
              "raw_setup_s": [raw for _, raw in setup], "correct": correct, "problems": problems,
              "metrics": metrics,
              "passes": [{k: v for k, v in p.items() if k != "digests"} for p in passes],
              "digests": passes[0]["digests"] if passes else {}}
    path = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print("meta " + json.dumps(meta))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; record: {path.relative_to(ROOT)}")
    for line in problems[:20]:
        print("problem: " + line)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
