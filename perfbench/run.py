"""sectoria benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suites-small --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; nothing is installed.  Each run starts fresh worker
processes pinned to one BLAS thread: one that sets up and then measures,
and with ``--trace 0`` eight more around it that only set up, to time
set-up.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer table from a traced pass (see NOTES.md).  Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, without a result line, when the run cannot
be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# Fresh processes whose set-up is timed, half before and half after the one
# that measures, so that one slow spell of the host does not set the median.
SETUP_BEFORE = 4
SETUP_AFTER = 4
# Every run, including its set-up processes, must end within this budget.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    """The run could not be made; no result is printed."""


def worker_env() -> dict:
    """The caller's environment, minus any PYTHONPATH that could shadow ``src``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--work", WORK]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget spent before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker ({mode}) exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise RunError(f"worker ({mode}) printed no result:\n{proc.stderr[-2000:]}") from exc


def report(args, setups: list[dict], res: dict) -> dict:
    found = dict(res["metrics"])
    if args.trace == 0:
        found["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                            "unit": "s"}
    failed_frac = res["failed"] / res["attempted"]
    host = res["host"]
    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"cycles {res['cycles']} requests {res['samples']} "
          f"({metrics.samples_beyond(res['samples'], 99)} beyond p99) "
          f"attempted {res['attempted']} failed {res['failed']}")
    print(f"host probe median {host['probe_median_ms']:.4f} ms over {host['probes']} probes; "
          f"times below are scaled to a {host['reference_probe_ms']:.4f} ms probe")
    print("setup_s samples " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    if args.trace == 1:
        print(f"spans {res['span_count']} written to {res['spans_path']}")
        print("layer          self_s/op(wall)  calls/op")
        units = res["traced_units"]
        for layer, agg in res["layers"].items():
            print(f"{layer:14s} {agg['self_s'] / units:.6e}  {agg['calls'] / units:10.2f}")
    print("kind                          ops   median_ms  wall_ms  failed  failed ops by cause")
    for kind, k in res["kinds"].items():
        causes = " ".join(f"{c}:{n}" for c, n in k["causes"].items())
        print(f"{kind:28s} {k['ops']:5d} {k['median_ms']:11.3f} {k['raw_median_ms']:8.3f} "
              f"{k['failed']:7d}  {causes}")
    for kind, k in res["kinds"].items():
        if k["example"]:
            print(f"first failure {kind}: {k['example']}")
    for name, value in res["uncorrected"].items():
        print(f"wall {name} {value!r}")
    for line in res["wrong"]:
        print(f"wrong {line}")
    print(f"outputs_sha256 {res['outputs_sha256']}")
    print(f"metric failed_frac {failed_frac!r} ratio")
    for name, m in found.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sectoria", "__init__.py")):
            raise RunError(f"no sectoria sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(WORK, exist_ok=True)
        timed = args.trace == 0
        setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_BEFORE * timed)]
        res = run_worker(args, "measure", deadline)
        setups.append(res)
        setups += [run_worker(args, "setup", deadline) for _ in range(SETUP_AFTER * timed)]
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    found = report(args, setups, res)
    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": found,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
