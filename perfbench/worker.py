"""One round of a perfbench workload, in a fresh single-threaded interpreter
with cold caches, as every `awbi` invocation starts.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload scan --seed 1 [--trace] [--tiny]
        [--spans FILE]

Prints one JSON object as its last line of standard output: set-up time
(importing awbi and building both backends' tables), wall time of the
round, per-op latencies, peak RSS, attempted and failed ops, the workload's
gate findings and, with --trace, the per-layer metrics.  --spans writes the
trace's spans, one JSON list [id, parent, name, start_s, end_s] per line,
times relative to the start of the round.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup():
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from awbi import cli, extension, numoracle, relations  # noqa: F401
    backends = [relations.get_backend(name) for name in ("aw", "bi")]
    return time.perf_counter() - t0, backends


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    setup_s, backends = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer
    from workloads import RUNNERS, SIZES

    size = SIZES[args.workload]["tiny" if args.tiny else "full"]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    tracer = Tracer().install() if args.trace else None
    op_span = tracer.span if tracer else (lambda label: nullcontext())
    t0 = time.perf_counter()
    rnd = RUNNERS[args.workload](size, args.seed, expected, op_span)
    wall_s = time.perf_counter() - t0
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "lat_ms": rnd.lat_ms,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "gate": rnd.gate,
        "size": size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(backends)
        out["spans"] = len(tracer.spans)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            with args.spans.open("w") as f:
                for sid, parent, name, s0, s1 in tracer.spans:
                    f.write(json.dumps([sid, parent, name, s0 - t0, s1 - t0]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
