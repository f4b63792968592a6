"""cyclewalk benchmark: one process, one client, a closed loop of seeded ops.

    python3 benchmarks/run.py --workload paper_search --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory and nowhere else.  Each op is issued after the previous one
returns, through `cyclewalk.cli.main(argv)` (stdout captured) or a README
library call, and its output is checked.  Ops come in rounds of a fixed mix
(see workloads.py); a run stops at the first round boundary after
`--seconds`.  BLAS runs BLAS_THREADS threads.

`--trace 0` prints the end-to-end metrics: setup_s (median over several fresh
interpreters that import cyclewalk and cyclewalk.cli and run one tiny op),
ops_per_s, op_p50_ms, op_tail_ms, certs_per_s and peak_rss_mb.  Rates and
latencies count the time spent inside ops, not the checking.

`--trace 1` runs every round twice, once untraced and once with every public
function of every layer wrapped (alternating which goes first), prints the
per-layer metrics, and reports the difference between the two passes as the
tracing overhead.  Spans go to `.bench_out/trace-<workload>-<seed>.json`.

The last stdout line is the result object; the line before it holds the
details (fail_ratio, tail percentile, sample counts, per-kind latencies) and
the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
TAIL_BEYOND = 10

SETUP_CODE = """\
import contextlib, io
import cyclewalk, cyclewalk.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cyclewalk.cli.main(["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "8"])
raise SystemExit(code)
"""

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "certs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "walk.build_walk_operator", "walk.evolve", "walk.line_walk",
    "spectral.block_diagonalize", "spectral.eigenphase_power", "spectral.full_spectrum",
    "revival.power_deviation", "revival.revival_period",
    "solver.enumerate_seeded", "solver.solve_two_form", "solver.solve_approximate",
    "tables.verify_table", "special.eigenbasis", "special.build_special_state", "cli.main",
)
PER_LAYER = {
    "walk.build_walk_operator.calls": "count",
    "walk.line_walk.alloc_peak_mb": "MB",
    "revival.power_deviation.calls": "count",
    "revival.power_deviation.alloc_peak_mb": "MB",
    "revival.deviation_max": "1",
    "solver.seeds_scanned": "count.computed",
    "solver.certificates": "count",
    "solver.yield": "ratio",
    "tables.checks": "count",
    "cli.rows": "count",
    "cli.stdout_mb": "MB",
    "exprs.parse.calls": "count",
    "bench.trace_overhead_pct": "%",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
}


class Tally:
    """Latencies, failures and output counters of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.rounds = 0
        self.decisions = self.rows = self.table_checks = self.search_certs = self.seeds = 0
        self.stdout_bytes = 0
        self.deviation_max = 0.0

    def add(self, op, latency: float, result, verdict) -> None:
        self.latencies.append(latency)
        self.kinds.append(op.kind)
        self.seeds += op.seeds
        if verdict is None or not verdict.ok:
            self.failures.append(f"{op.kind}: {'raised' if verdict is None else verdict.reason}")
            return
        self.decisions += verdict.decisions
        self.rows += verdict.rows
        self.table_checks += verdict.table_checks
        self.search_certs += verdict.search_certs
        self.deviation_max = max(self.deviation_max, verdict.deviation)
        self.stdout_bytes += len(getattr(result, "out", "").encode())

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def by_kind(self) -> dict:
        """Per op kind: count, median and largest latency in ms."""
        groups: dict[str, list[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            groups.setdefault(kind, []).append(1e3 * latency)
        return {k: [len(v), statistics.median(v), max(v)] for k, v in sorted(groups.items())}


def run_round(ops, tally: Tally, tracer=None) -> None:
    """Run and check one round of ops, under `tracer` when one is given."""
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            result = verdict = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                    latency = time.perf_counter() - t0
                else:
                    result, latency = tracer.run_op(len(tally.latencies), op.call)
            except Exception:
                latency = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
            else:
                try:
                    verdict = op.check(result)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            tally.add(op, latency, result, verdict)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally.rounds += 1


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum for shorter runs."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import the program and run one tiny op."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup op failed: {proc.stderr.decode()[-500:]}")
    return times


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "caches": caches,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload after a tiny warm-up round; returns (result, details)."""
    import workloads

    warm = Tally()
    run_round(next(workloads.rounds(workload, seed, tiny=True)), warm)
    rounds = workloads.rounds(workload, seed, tiny)
    if trace:
        tallies, metrics, details = _traced(rounds, seconds, workload, seed)
    else:
        tallies, metrics, details = _untraced(rounds, seconds, setup_repeats)
    failures = [f for t in (warm, *tallies) for f in t.failures]
    details = {"workload": workload, "seed": seed, "seconds": seconds, "tiny": tiny,
               **details, "failures": failures[:20]}
    result = {
        "correct": not failures and not details.get("self_time_mismatches"),
        "attempted": sum(len(t.latencies) for t in tallies),
        "failed": sum(len(t.failures) for t in tallies),
        "metrics": metrics,
    }
    return result, details


def _untraced(rounds, seconds, setup_repeats):
    tally = Tally()
    start = time.perf_counter()
    while not tally.rounds or time.perf_counter() - start < seconds:
        run_round(next(rounds), tally)
    setup = measure_setup(setup_repeats)
    value, percentile, beyond = tail(tally.latencies)
    busy = tally.busy_s
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(tally.latencies) / busy,
        "op_p50_ms": 1e3 * statistics.median(tally.latencies),
        "op_tail_ms": 1e3 * value,
        "certs_per_s": tally.decisions / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    details = {
        "rounds": tally.rounds,
        "ops": len(tally.latencies),
        "op_time_s": busy,
        "fail_ratio": metric(len(tally.failures) / len(tally.latencies), "1"),
        "op_tail": {"percentile": percentile, "samples_beyond": beyond},
        "op_kinds_ms": tally.by_kind(),
        "setup_samples_s": setup,
    }
    return [tally], metrics, details


def _traced(rounds, seconds, workload, seed):
    import tracer as tracing

    plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
    start = time.perf_counter()
    while not plain.rounds or time.perf_counter() - start < seconds:
        ops = next(rounds)
        passes = [(plain, None), (traced, tracer)]
        # alternate which pass runs first, so warm caches favour neither
        for tally, with_tracer in passes[:: 1 if plain.rounds % 2 else -1]:
            run_round(ops, tally, with_tracer)
    calls = tracer.calls
    overhead = 100.0 * (traced.busy_s / plain.busy_s - 1.0)
    values = {
        "walk.build_walk_operator.calls": calls["walk.build_walk_operator"],
        "walk.line_walk.alloc_peak_mb": tracer.alloc_peak_mb["walk.line_walk"],
        "revival.power_deviation.calls": calls["revival.power_deviation"],
        "revival.power_deviation.alloc_peak_mb": tracer.alloc_peak_mb["revival.power_deviation"],
        "revival.deviation_max": traced.deviation_max,
        "solver.seeds_scanned": traced.seeds,
        "solver.certificates": traced.search_certs,
        "solver.yield": traced.search_certs / traced.seeds if traced.seeds else 0.0,
        "tables.checks": traced.table_checks,
        "cli.rows": traced.rows,
        "cli.stdout_mb": traced.stdout_bytes / 1e6,
        "exprs.parse.calls": calls["exprs.parse_value"] + calls["exprs.parse_fraction"],
        "bench.trace_overhead_pct": overhead,
        **{f"{name}.self_s": tracer.self_s[name] for name in SELF_TIMED},
    }
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    details = {
        "rounds": traced.rounds,
        "ops": len(traced.latencies),
        "untraced_op_time_s": plain.busy_s,
        "traced_op_time_s": traced.busy_s,
        "trace_overhead_pct": overhead,
        "unattributed_s": tracer.self_s[tracing.ROOT],
        "self_time_mismatches": len(tracer.self_time_mismatches()),
        "trace_file": str(_write_trace(workload, seed, tracer).relative_to(ROOT)),
    }
    return [plain, traced], metrics, details


def _write_trace(workload: str, seed: int, tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    layers = {name: {"calls": tracer.calls[name], "self_s": tracer.self_s.get(name, 0.0)}
              for name in sorted(set(tracer.calls) | set(tracer.self_s))}
    with path.open("w") as fh:
        json.dump({
            "span_fields": ["id", "parent", "op", "name", "start", "end", "self_s"],
            "layers": layers,
            "alloc_peak_mb": dict(tracer.alloc_peak_mb),
            "spans": tracer.spans,
        }, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_search", "large_cycle", "walk_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "cyclewalk" / "__init__.py").is_file():
        print(f"run.py: no cyclewalk source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import cyclewalk

    if not Path(cyclewalk.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: cyclewalk imported from {cyclewalk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    details["machine"] = machine_record()
    for failure in details["failures"]:
        print(f"run.py: failed op {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
