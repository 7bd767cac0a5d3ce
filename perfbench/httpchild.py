"""HTTP server child: one durable deployment behind ``serve_http``.

Run by the ingest-http workload as its own process::

    python3 perfbench/httpchild.py --bundle M.tgm --checkpoint-dir D --cpu N [--trace]

It pins itself to CPU ``N``, loads the bundle, serves
``Workspace.serve(model, checkpoint_dir=D)`` over HTTP on an ephemeral
localhost port, prints ``{"port": <port>}`` and waits for a line on
standard input.  Then it shuts the server down
(drain plus final snapshot) and prints one JSON report: its peak RSS
and, with ``--trace``, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--cpu", type=int, required=True, help="pin to this CPU")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    import figures
    import layers
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

    from repro.api import BehaviorModel, Workspace

    model = BehaviorModel.load(args.bundle)
    handle = Workspace().serve_http(model, checkpoint_dir=args.checkpoint_dir)
    handle.start_background()
    print(json.dumps({"port": handle.address[1]}), flush=True)
    sys.stdin.readline()
    handle.close()

    report = {"peak_rss_mb": figures.peak_rss_mb()}
    if tracer is not None:
        tracer.restore()
        report["layers"] = layers.layer_metrics(tracer)
        report["records"] = len(tracer.spans) + len(tracer.aggregates)
        report["server_s"] = sum(
            tracer.duration(i) for i, _ in tracer.find("http.codec")
        )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
