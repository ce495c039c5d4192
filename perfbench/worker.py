"""One pass of one workload, in a fresh interpreter.

Imports the package and builds the workload's Contexts, prints ``ready``
(the parent times set-up from its spawn to this line), generates the inputs
from the seed, then runs every item in a closed loop and prints one JSON
line with the pass's timings, counts and per-item digests.

Run by ``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me, kids


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _cpu_delta(before, after) -> float:
    """CPU seconds of this process and its waited-for children in between."""
    return sum(_cpu(a) - _cpu(b) for a, b in zip(after, before))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-bad-digest", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--tag", default="pass")
    ap.add_argument("--round", type=int, default=0,
                    help="the run's round; each round draws its inputs afresh (not cli)")
    args = ap.parse_args()

    import random

    import numpy

    from crystal_poly import inequalities

    if args.workload == "cli":
        import crystal_poly.cli  # noqa: F401  (what every CLI invocation imports)
    import speed
    import workloads

    t0 = time.perf_counter()
    ctxs = workloads.contexts(args.workload, args.size)
    context_s = time.perf_counter() - t0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    t0 = time.perf_counter()
    # Each round of a run draws afresh (a new item order, a new query stream),
    # so that the run's medians rest on many draws, not on the one the seed
    # gives; round 0 draws from the seed alone.  The CLI script is one per run.
    fresh = args.workload != "cli" and args.round
    rng = random.Random(f"{args.seed}:{args.round}" if fresh else args.seed)
    props = {}
    cli_stats = {"output_bytes": 0, "import_s": [], "calls": 0}
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    if args.workload == "queries":
        inputs = workloads.query_inputs(ctxs, rng)
        props = workloads.query_properties(inputs)
        items = workloads.queries(ctxs, inputs)
    elif args.workload == "cli":
        items = workloads.cli(ctxs, args.size, rng, os.path.join(args.out_dir, "cfg"),
                              _invoker(args, tracer, cli_stats))
    else:
        items = getattr(workloads, args.workload)(ctxs, args.size, rng)
    inputgen_s = time.perf_counter() - t0

    expected = _expected_digests(args.workload)
    if args.inject_bad_digest:
        expected[items[0].id] = "0" * 64
    if tracer is not None:
        spans.install(tracer)

    latencies, digests, failures, intervals = [], {}, [], []
    sampler = None if tracer is not None else speed.Sampler()
    if sampler is not None:
        sampler.start()
    ru0 = _rusage()
    t_begin = time.perf_counter()
    for item in items:
        t_item, ru_item = time.perf_counter(), _rusage()
        try:
            if tracer is None:
                agree, canonical = item.run()
            else:
                tracer.item = item.id
                agree, canonical = tracer.span("bench.item", "bench", item.run)
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            agree, canonical = False, f"error: {type(exc).__name__}: {exc}"
        t_done = time.perf_counter()
        intervals.append((t_item, t_done, _cpu_delta(ru_item, _rusage())))
        if args.workload == "cli":
            cli_stats["output_bytes"] += len(canonical.encode())
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        digests[item.id] = digest
        if not agree:
            failures.append([item.id, "sides disagree: " + canonical[:200]])
        elif item.id in expected and expected[item.id] != digest:
            failures.append([item.id, "digest mismatch"])
    t_end = time.perf_counter()
    ru1 = _rusage()
    if sampler is not None:
        sampler.stop()

    # Raw times leave out the sampler's kernel calls; reference times also
    # scale each item by the host speed sampled while it ran (speed.py).
    # A traced pass has no sampler and reports raw times.
    kernel_times = [d for _, d in sampler.samples] if sampler else []
    loop_kernel_s = sampler.window(t_begin, t_end)[0] if sampler else 0.0
    ref_wall = ref_cpu = 0.0
    for t_item, t_done, cpu in intervals:
        kernel_s, kernel_mean = sampler.window(t_item, t_done) if sampler else (0.0, speed.NOMINAL_S)
        item_s = speed.reference(t_done - t_item - kernel_s, kernel_mean)
        ref_wall += item_s
        ref_cpu += speed.reference(max(cpu - kernel_s, 0.0), kernel_mean)
        latencies.append(item_s)

    raw_wall = t_end - t_begin - loop_kernel_s
    raw_cpu = _cpu_delta(ru0, ru1) - loop_kernel_s
    rss_kb = ru1[0].ru_maxrss + (ru1[1].ru_maxrss if args.workload == "cli" else 0)
    out = {
        "wall_s": ref_wall if sampler else raw_wall,
        "cpu_s": ref_cpu if sampler else raw_cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "kernel_samples": len(kernel_times),
        "kernel_mean_s": statistics.fmean(kernel_times) if kernel_times else None,
        "peak_rss_mb": rss_kb / 1024.0,
        "latencies_s": latencies,
        "item_slots": [item.slot for item in items],
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "context_s": context_s,
        "inputgen_s": inputgen_s,
        "properties": props,
        "numpy": numpy.__version__,
        "node_cap": inequalities.node_cap(),
        "output_bytes": cli_stats["output_bytes"],
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["trace"]["import_s"] = cli_stats["import_s"]
        out["trace"]["spans"] = len(tracer.spans)
        path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}-{args.tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(out))
    return 0


def _expected_digests(workload: str) -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return dict(json.load(fh).get(workload, {}))


def _invoker(args, tracer, cli_stats):
    """How a CLI item runs its process; returns the CompletedProcess.

    Untraced: ``python -m crystal_poly``, as a user runs it.  Traced: a shim
    that installs the same wrappers in the child and writes its summary to a
    file; the child's layer self times are charged inside a ``cli`` span, so
    the rest of the process's time (start-up, import, exit) counts as cli.
    """

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, text=True)

    if tracer is None:
        return lambda argv: run([sys.executable, "-m", "crystal_poly"] + argv)

    def invoke(argv):
        cli_stats["calls"] += 1
        path = os.path.join(args.out_dir, f"child-{args.seed}-{args.tag}-{cli_stats['calls']}.json")

        def call():
            proc = run([sys.executable, os.path.join(HERE, "cli_shim.py"), path] + argv)
            _collect(tracer, cli_stats, path)
            return proc

        return tracer.span("cli.process", "cli", call)

    return invoke


def _collect(tracer, cli_stats, path):
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(path)
    cli_stats["import_s"].append(child["import_s"])
    self_s = dict(child["self_s"])
    self_s["trace"] = self_s.get("trace", 0.0) + child["counter_s"]
    tracer.charge_child(self_s)
    for key in ("self_by_name", "incl_s"):
        for name, secs in child[key].items():
            getattr(tracer, key)[name] += secs
    for key in ("calls", "counts", "reused"):
        getattr(tracer, key).update(child[key])
    span_id, offset = tracer.stack[-1][0], tracer._next_id
    tracer._next_id += child["next_id"]
    for span in child["spans"]:
        span[0] += offset
        span[5] = span_id if span[5] is None else span[5] + offset
        span[6] = tracer.item
        tracer.spans.append(span)


if __name__ == "__main__":
    sys.exit(main())
