"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a short human summary, then as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: every ``end_to_end`` metric of BENCHMARK.json with
``--trace 0``, every ``per_layer`` metric with ``--trace 1``.  The run
record (environment, failures, notes) and, when traced, the span file
are written under ``.perfbench-out/``.  Exits 2 without a result when
the program's sources are not beside the benchmark.

``--tiny`` shrinks batches and set-up repeats for the smoke test.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import SRC, Run, emit, pin_threads

WORKLOADS = ("train-hybrid-b128", "ddp-vanilla-b32x4", "gateway-hybrid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    # Before numpy is imported anywhere: BLAS threads are fixed at start-up.
    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    from repro.tensor import backend

    backend.set_backend(os.environ["REPRO_BACKEND"])

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    if args.workload == "gateway-hybrid":
        from gateway import run_gateway

        run_gateway(run)
    else:
        from training import run_training

        run_training(run)
    emit(run.finish())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
