"""Cold-start benchmark of twistcheck.

    python3 bench/run.py --workload golden_tables|lratio_ladder|crosscheck
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/twistcheck``).  The
load is a closed loop with one client: rounds run one after another, each in
a fresh interpreter so every module cache starts cold, while the next round
fits in ``--seconds``; every round runs the same seeded operations.  Set-up is also
measured in separate interpreters that only import the program.  The last
line of stdout is one JSON object; with ``--trace 1`` its metrics are the
per-layer ones, recorded by wrapping twistcheck's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracing import LAYER_METRICS, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES_PER_ROUND = 2  # set-up-only interpreters after each untraced round
IMPORTTIME_PROBES = 3  # `python -X importtime` interpreters per traced run
CHILD_TIMEOUT_S = 150
P90_MIN_OPS = 100  # report a p90 only with at least ten samples beyond it


class ChildFailed(RuntimeError):
    pass


def _child(argv, stdin_text: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *argv],
        input=stdin_text,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def _worker(*args, stdin_text: str = "") -> dict:
    proc = _child([str(HERE / "worker.py"), *args], stdin_text)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times() -> dict[str, float]:
    """Cumulative import seconds of numpy and of twistcheck (package plus
    its CLI module) from `python -X importtime`."""
    proc = _child(["-X", "importtime", "-c", "import twistcheck.cli_io"])
    numpy_s = twistcheck_s = 0.0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        seconds, name = int(fields[1]) / 1e6, fields[2]
        if name.strip() == "numpy":
            numpy_s = seconds
        elif name.startswith(" twistcheck"):  # top level: one leading space
            twistcheck_s += seconds
    return {"setup.numpy_import_s": numpy_s, "setup.twistcheck_import_s": twistcheck_s}


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twistcheck" / "__init__.py").is_file():
        print(f"no twistcheck sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    data = inputs.make(args.workload, args.seed)
    payload = json.dumps(data)

    # The first interpreter also compiles the sources to bytecode, as an
    # installed package would have them; it is not measured.
    _worker("setup")

    # Whole rounds, with set-up probes between them, while the next round
    # still fits in --seconds.  Speed on a shared machine drifts over tens of
    # seconds, so the probes are spread over the run rather than bunched.
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        spans = OUT / f"spans-{args.workload}-round{len(rounds)}.json"
        rounds.append(_worker(args.workload, str(args.trace), str(spans), stdin_text=payload))
        if not args.trace:
            setups += [_worker("setup")["setup_s"] for _ in range(SETUP_PROBES_PER_ROUND)]
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    attempted = sum(len(r["op_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    ops = [t for r in rounds for t in r["op_s"]]
    wall = statistics.median(r["wall_s"] for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed, {len(problems)} check failures")
    print("round wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in rounds))

    if args.trace:
        layers = median_metrics([r["layers"] for r in rounds])
        imports = [_import_times() for _ in range(IMPORTTIME_PROBES)]
        layers.update(median_metrics(imports))
        print(f"traced wall_s {wall:.6f} s (spans in {OUT.relative_to(ROOT)})")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_s": {"value": statistics.median(ops), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
        if attempted >= P90_MIN_OPS:
            print(f"op_p90_s {_quantile(ops, 0.9):.6f} s over {attempted} operations")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # SystemExit on SIGTERM lets subprocess.run kill and reap the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
