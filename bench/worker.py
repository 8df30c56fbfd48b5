"""One cold round of one workload, in a fresh interpreter.

    python3 bench/worker.py setup
    python3 bench/worker.py <workload> <trace 0|1> <spans file>  < inputs.json

The first thing the process does is import twistcheck and validate both base
curves; that time is ``setup_s``.  Only then does it import the benchmark's
own modules and read its inputs from stdin, so neither is counted in set-up
and none of them warms a module twistcheck imports.  It prints one JSON
object.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import twistcheck
    import twistcheck.cli_io  # noqa: F401  (the CLI module, as a CLI call pays it)

    twistcheck.base_curve(15)
    twistcheck.base_curve(21)
    setup_s = time.perf_counter() - t0

    import json

    if sys.argv[1] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource

    import rounds
    from tracing import Tracer

    workload, traced, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    inputs = json.load(sys.stdin)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    timed = rounds.RUNNERS[workload](twistcheck, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        tracer.write(spans_path)
    problems = rounds.CHECKS[workload](twistcheck, inputs, timed)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": timed.wall_s,
                "op_s": timed.op_s,
                "failed": len(timed.failed),
                "peak_rss_mb": peak_rss_mb,
                "problems": problems,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
