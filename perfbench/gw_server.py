"""Traced gateway server: ``repro gateway serve`` with the kernel and stage probes.

    python perfbench/gw_server.py PROBES_JSON <repro gateway serve arguments>

Installs :class:`probes.KernelProbe` on the ``fast`` backend and
:class:`probes.StageProbe` on the served model as soon as the registry
builds it, then runs the CLI unchanged.  SIGUSR1 zeroes the probes (the
benchmark sends it when its measured phase starts, so boot-time profiling
forwards are excluded).  On exit the probe totals and spans go to
PROBES_JSON.
"""

from __future__ import annotations

import json
import signal
import sys

from common import Spans
from probes import STAGES, KernelProbe, StageProbe

# The server forwards every request; keep its span memory bounded.
MAX_SPANS = 50_000


def main() -> int:
    out_path, *serve_args = sys.argv[1:]
    from repro import cli
    from repro.serve.registry import ModelRegistry
    from repro.tensor import backend, graph_nodes_created

    spans = Spans(limit=MAX_SPANS)
    state: dict = {}

    def reset(*_) -> None:
        spans.items.clear()
        state["kernels"].reset()
        state["stages"].reset()
        state["nodes0"] = graph_nodes_created()

    inner = ModelRegistry.materialize

    def materialize(self, *args, **kwargs):
        served = inner(self, *args, **kwargs)
        state.update(kernels=KernelProbe(spans), stages=StageProbe(served.model, spans),
                     nodes0=graph_nodes_created())
        state["kernels"].install(backend.get("fast"), served.model)
        state["stages"].install()
        return served

    ModelRegistry.materialize = materialize
    signal.signal(signal.SIGUSR1, reset)
    try:
        return cli.main(serve_args)
    finally:
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
        kernels, stages = state["kernels"], state["stages"]
        with open(out_path, "w") as f:
            json.dump({
                "kernels": kernels.totals(),
                "forward_ms": {s: stages.forward_s[s] * 1e3 for s in STAGES},
                "graph_nodes": graph_nodes_created() - state["nodes0"],
                "spans_t0": spans.t0,
                "spans": spans.items,
                "spans_dropped": spans.dropped,
            }, f)


if __name__ == "__main__":
    raise SystemExit(main())
