"""One fresh benchmark process: set up a workload, and optionally measure it.

Started by run.py.  The last line of stdout is a JSON object.  With
``--mode setup`` it holds only the set-up time; with ``--mode measure`` it
also holds the run's counts, digest and metrics.

Host-speed correction.  The machines this runs on share their cores, and
their speed drifts by up to 2x over tens of seconds.  So the worker runs a
fixed probe (benchmark-owned numpy and interpreter work that never touches
sectoria) between requests, at least every ``PROBE_EVERY_S``.  Each request's
wall time is scaled by ``REFERENCE_PROBE_S / c``, where ``c`` is the median
cost of the ``PROBE_NEIGHBOURS`` probes nearest to it in time.  Reported
times are thus seconds on a host where the probe costs ``REFERENCE_PROBE_S``.
The uncorrected figures are printed alongside.  Set-up time is left as wall
time: no probe tracked the cost of imports.
"""

import os
import time

T_START = time.perf_counter()
# One BLAS thread, set before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Probe cost on a quiet 2-core x86-64 host (Python 3.11, numpy 2.4, OpenBLAS).
REFERENCE_PROBE_S = 0.5e-3
PROBE_EVERY_S = 0.05
PROBE_NEIGHBOURS = 7
# The traced pass stops at the first cycle boundary past this many spans.
SPAN_BUDGET = 250_000
# Rates take each request kind's lower-quartile latency.  Host noise that the
# correction misses only ever slows a request; over five 30 s runs of
# suites-large the lower quartile halved the rates' spread against the median.
RATE_QUANTILE = 25

UNIT_SIZES = (4, 16, 64)
UNIT_FUNCTIONS = ("check_main1", "check_main2", "in_sector", "sectorial_decompose",
                  "gen_sectorial", "eigvalsh")


def import_program():
    """Import sectoria from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("sectoria")
    importlib.import_module("sectoria.cli")
    where = os.path.realpath(pkg.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"sectoria was imported from {where}, not from {SRC}")
    return pkg


class Probe:
    """Fixed work split about 40/60 between interpreter-bound small-array
    calls and one LAPACK call, the mix the workloads spend their time on."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20141019)
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.h64 = m + m.conj().T
        s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self.h6 = s + s.conj().T
        self.rows = [[float(v) for v in row] for row in rng.standard_normal((6, 6))]
        self.times: list[float] = []
        self.costs: list[float] = []
        self._last = -1.0

    def sample(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = {}
        for i in range(12):
            a = np.array(self.rows, dtype=np.complex128)
            if np.all(np.isfinite(a)):
                acc[i % 5] = acc.get(i % 5, 0.0) + float(np.linalg.eigvalsh(self.h6)[0])
        np.linalg.eigvalsh(self.h64)
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Correction factor for the whole period probed so far."""
        return REFERENCE_PROBE_S / statistics.median(self.costs)

    def correct(self, starts, latencies) -> list[float]:
        mids = [s + lat / 2 for s, lat in zip(starts, latencies)]
        local = metrics.local_medians(self.times, self.costs, mids, PROBE_NEIGHBOURS)
        return [lat * REFERENCE_PROBE_S / c for lat, c in zip(latencies, local)]


class Phase:
    """Everything one pass over cycles ``0..cycles-1`` produced."""

    def __init__(self):
        self.cycles = 0
        self.results: list[workloads.Result] = []
        self.kind_units = {}
        self.kind_family = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.kind_attempted = defaultdict(int)
        self.kind_failed = defaultdict(int)
        self.kind_example = {}  # kind -> record of its first failure
        self.kind_causes = defaultdict(lambda: defaultdict(int))  # kind -> cause -> ops
        self.digests = []  # per cycle, a digest of its outputs
        self.result_cycle = []  # per result, its cycle
        self.corrected = []  # per result, corrected seconds, after finish()
        self.latency = {}  # kind -> corrected seconds per op, after finish()
        self.raw = {}  # kind -> wall seconds per op
        self.returned = {}  # kind -> per op, whether the call returned rather than raised
        self.probe = None

    def add(self, cycle: int, res: workloads.Result) -> None:
        self.results.append(res)
        self.result_cycle.append(cycle)
        self.kind_units[res.kind] = res.units
        self.kind_family[res.kind] = res.family
        self.kind_attempted[res.kind] += res.units
        self.attempted += res.units
        self.failed += res.outcome.failed
        if res.outcome.failed:
            self.kind_failed[res.kind] += res.outcome.failed
            self.kind_example.setdefault(res.kind, res.outcome.record[:160])
            record = res.outcome.record
            cause = record.split(":")[0] if record.startswith("raised ") else record.split()[0]
            self.kind_causes[res.kind][cause] += 1
        if res.outcome.wrong:
            self.wrong.append(f"cycle {cycle} {res.kind}: {res.outcome.record[:300]}")
        if len(self.digests) <= cycle:
            self.digests.append(hashlib.sha256())
        self.digests[cycle].update(f"{res.kind}\t{res.outcome.record}\n".encode())

    def outputs_sha256(self, cycles: int) -> str:
        """Digest of the outputs of cycles ``0..cycles-1``."""
        return hashlib.sha256(b"".join(d.digest() for d in self.digests[:cycles])).hexdigest()

    def finish(self, probe: Probe) -> None:
        self.probe = probe
        self.corrected = probe.correct([r.start for r in self.results],
                                       [r.latency for r in self.results])
        self.latency = defaultdict(list)
        self.raw = defaultdict(list)
        self.returned = defaultdict(list)
        for r, c in zip(self.results, self.corrected):
            self.latency[r.kind].append(c)
            self.raw[r.kind].append(r.latency)
            self.returned[r.kind].append(not r.raised)

    def kinds(self) -> dict:
        """Per op kind: ops run, median latency, failed units and a failure example."""
        return {
            k: {"ops": len(lat), "median_ms": metrics.percentile(lat, 50) * 1e3,
                "raw_median_ms": metrics.percentile(self.raw[k], 50) * 1e3,
                "failed": self.kind_failed[k], "causes": dict(self.kind_causes[k]),
                "example": self.kind_example.get(k, "")}
            for k, lat in self.latency.items()
        }

    def busy_s(self, cycles: int) -> float:
        """Corrected request time spent in cycles ``0..cycles-1``."""
        return sum(lat for c, lat in zip(self.result_cycle, self.corrected) if c < cycles)


def run_cycles(wl, done, tracer=None) -> Phase:
    """Closed loop over whole cycles, from cycle 0 until ``done(phase, elapsed)``
    holds after a cycle and the workload's digest cycles are complete."""
    phase = Phase()
    probe = Probe()
    probe.sample()
    start = time.perf_counter()
    op_id = 0
    while True:
        for op in wl.cycle(phase.cycles):
            probe.due()
            phase.add(phase.cycles, workloads.execute(op, tracer, op_id))
            op_id += 1
        phase.cycles += 1
        if phase.cycles >= wl.digest_cycles and done(phase, time.perf_counter() - start):
            break
    probe.sample()
    phase.finish(probe)
    return phase


def headline(phase: Phase, latency: dict) -> dict:
    """Rates and latency percentiles from per-kind latency lists.

    Rates count only calls that returned: a call that raised did an unknown
    part of its trials, and is counted in ``failed`` instead.
    """
    done = {k: [x for x, ok in zip(lat, phase.returned[k]) if ok] for k, lat in latency.items()}
    kinds = [(phase.kind_units[k], lat) for k, lat in done.items()]
    all_lat = [x for lat in latency.values() for x in lat]
    out = {"trials_per_s": (metrics.mix_rate(kinds, RATE_QUANTILE), "trials/s")}
    for fam in workloads.FAMILIES:
        fam_kinds = [(phase.kind_units[k], lat) for k, lat in done.items()
                     if phase.kind_family[k] == fam]
        out[f"{fam}.trials_per_s"] = (metrics.mix_rate(fam_kinds, RATE_QUANTILE), "trials/s")
    out["request_p50_ms"] = (metrics.percentile(all_lat, 50) * 1e3, "ms")
    out["request_p99_ms"] = (metrics.percentile(all_lat, 99) * 1e3, "ms")
    return out


def end_to_end(phase: Phase) -> dict:
    out = headline(phase, phase.latency)
    # Each request kind weighs the same, whatever its trials per call.
    out["success_frac"] = (statistics.fmean(
        1.0 - phase.kind_failed[k] / n for k, n in phase.kind_attempted.items()), "ratio")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(spans_list, units: int, scale: float, overhead: float) -> tuple[dict, dict]:
    """The layer table; times are scaled by the traced pass's host correction."""
    table = metrics.layer_table(spans_list, spans.LAYERS)
    op_s = table["op_s"]
    funcs = table["functions"]

    def fn(name, field):
        return funcs.get(name, {}).get(field, 0.0)

    def per_op_s(name):
        return fn(name, "self_s") * scale / units

    out = {}
    for layer, agg in table["layers"].items():
        out[f"{layer}.self_s"] = (agg["self_s"] * scale / units, "s")
        out[f"{layer}.self_share"] = (agg["self_s"] / op_s, "ratio")
        out[f"{layer}.calls_per_op"] = (agg["calls"] / units, "count")
    draws = fn("generators.complex_gaussian", "calls")
    returned = (fn("generators.gen_sectorial_planted", "calls")
                + fn("generators.gen_positive_definite", "calls"))
    out.update({
        "linalg.as_square_matrix.calls_per_op":
            (fn("linalg.as_square_matrix", "calls") / units, "count"),
        "generators.accept_ratio": (returned / draws if draws else 0.0, "ratio"),
        "linalg.determinant.calls_per_op": (fn("linalg.determinant", "calls") / units, "count"),
        "linalg.lu_flops_per_op":
            (sum(fn(f, "work") for f in spans.WORK_ESTIMATES) / units, "flop"),
        "sector.in_sector.calls_per_op": (fn("sector.in_sector", "calls") / units, "count"),
        "sector.in_sector.self_s": (per_op_s("sector.in_sector"), "s"),
        "sector.sectorial_decompose.self_s": (per_op_s("sector.sectorial_decompose"), "s"),
        "schur.schur_complement.calls_per_op":
            (fn("schur.schur_complement", "calls") / units, "count"),
        "cli.build_parser.self_s": (per_op_s("cli.build_parser"), "s"),
        "cli.read_matrix.self_share": (fn("cli.read_matrix", "self_s") / op_s, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.coverage": (table["coverage"], "ratio"),
    })
    return out, table


def time_call(fn, probe: Probe, repeats: int = 7, min_batch_s: float = 2e-3) -> float:
    """Median corrected seconds per call over ``repeats`` batches of at least
    ``min_batch_s``, each batch scaled by the probes run just before it."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    samples = []
    for _ in range(repeats):
        cost = statistics.median(probe.sample() for _ in range(3))
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * REFERENCE_PROBE_S / cost)
    return metrics.percentile(samples, 50)


def unit_rows(pkg, seed: int) -> dict:
    """Per-call cost of a few public entry points at n = 4, 16, 64."""
    import numpy as np

    probe = Probe()
    alpha = workloads.ALPHA
    out = {}
    for n in UNIT_SIZES:
        s = lambda k: workloads.derive_seed(seed, -2, n, k)  # noqa: E731
        a = pkg.gen_sectorial(n, alpha, s(0))
        b = pkg.gen_sectorial(n, alpha, s(1))
        h = pkg.cartesian_split(a).re
        calls = {
            "check_main1": lambda: pkg.check_main1(a, b, alpha, n // 2),
            "check_main2": lambda: pkg.check_main2(a, b, alpha),
            "in_sector": lambda: pkg.in_sector(a, alpha),
            "sectorial_decompose": lambda: pkg.sectorial_decompose(a),
            "gen_sectorial": lambda: pkg.gen_sectorial(n, alpha, s(2)),
            "eigvalsh": lambda: np.linalg.eigvalsh(h),
        }
        for name in UNIT_FUNCTIONS:
            out[f"unit.{name}.us.n{n}"] = (time_call(calls[name], probe) * 1e6, "us")
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    args = ap.parse_args()

    pkg = import_program()
    imported = time.perf_counter()
    warnings.simplefilter("ignore")
    wl = workloads.make(args.workload, args.seed)
    # Writing the workload's input files is the benchmark's own work, so it
    # is left out of set-up time; its disk latency was most of that time's
    # spread on interactive.
    wl.setup(pkg, os.path.join(args.work, args.workload))
    inputs_done = time.perf_counter()
    for op in wl.warm_up_ops():
        workloads.execute(op)
    result = {"setup_s": (imported - T_START) + (time.perf_counter() - inputs_done)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.trace == 0:
        phase = run_cycles(wl, lambda ph, elapsed: elapsed >= args.seconds)
        found = end_to_end(phase)
        wrong = phase.wrong
    else:
        untraced = run_cycles(wl, lambda ph, elapsed: elapsed >= args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            # Repeat the untraced cycles, stopping early once enough spans
            # are held in memory.
            phase = run_cycles(wl, lambda ph, elapsed: ph.cycles >= untraced.cycles
                               or len(tracer.spans) >= SPAN_BUDGET, tracer)
        finally:
            tracer.uninstall()
        overhead = phase.busy_s(phase.cycles) / untraced.busy_s(phase.cycles) - 1.0
        wrong = untraced.wrong + phase.wrong
        if phase.outputs_sha256(phase.cycles) != untraced.outputs_sha256(phase.cycles):
            wrong.append("traced outputs differ from untraced outputs")
        found, table = per_layer(tracer.spans, phase.attempted, phase.probe.scale(), overhead)
        found.update(unit_rows(pkg, args.seed))
        spans_path = os.path.join(args.work, f"spans-{args.workload}.jsonl")
        tracer.write_jsonl(spans_path)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
        result["span_count"] = len(tracer.spans)
        result["layers"] = table["layers"]
        result["traced_units"] = phase.attempted
        phase.attempted += untraced.attempted
        phase.failed += untraced.failed

    result.update({
        "machine": machine(),
        "cycles": phase.cycles,
        "samples": len(phase.results),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "wrong": wrong[:20],
        "kinds": phase.kinds(),
        "host": {"probes": len(phase.probe.costs),
                 "probe_median_ms": statistics.median(phase.probe.costs) * 1e3,
                 "reference_probe_ms": REFERENCE_PROBE_S * 1e3},
        "uncorrected": {k: v for k, (v, _) in headline(phase, phase.raw).items()},
        "outputs_sha256": phase.outputs_sha256(wl.digest_cycles),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in found.items()},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
