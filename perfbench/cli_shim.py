"""Run one CLI invocation with the layer wrappers installed (traced runs).

Usage: ``python cli_shim.py SUMMARY_PATH <crystal-poly arguments>``.  Runs
``crystal_poly.cli.main`` on the arguments, exits with its code, and writes
the child's trace summary and spans to SUMMARY_PATH for the parent worker.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import crystal_poly.cli as cli  # noqa: E402

import_s = perf_counter() - t0

import spans  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    tracer = spans.install(spans.Tracer())
    tracer.counter_s += perf_counter() - t0
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary.update(import_s=import_s, spans=tracer.spans, next_id=tracer._next_id)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
