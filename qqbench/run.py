#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the qqocert CLI.

Usage, from the repository root:

    python3 qqbench/run.py --workload family --seed 1 --seconds 25 --trace 0
    python3 qqbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One closed-loop client in one process calls ``qqocert.cli.main(argv)``
at the default budgets, the way a user runs the CLI, and checks every
output against the references in refcheck.py.  Rounds of the workload's
calls repeat while the next one is expected to end within ``--seconds``;
the first round always runs, so a run lasts at most the longer of
``--seconds`` and one round.

Each untraced call is bracketed by a host probe, a fixed slice of the
benchmark's own numpy and Python work, because this kind of shared host
drifts in speed by a quarter over seconds to minutes.  The end-to-end
timings on the last line are rescaled to the speed at which the probe
takes PROBE_REF_S; the measured values are printed above it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each untraced round is followed by the same round with
the layers traced (spans.py), and the last line reports per-layer totals
per round, the tracing overhead and the import-time split.  Lines above
the last one give the run metadata and every per-subcommand latency.
Results and spans are written under ``.qqbench_out/``.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".qqbench_out"
SETUP_REPEATS = 3
SETUP_SNIPPET = "import qqocert, qqocert.cli; qqocert.cli.build_parser()"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# host_probe_s() on the host that recorded BASELINE.md; the adjusted
# metrics are in seconds of a host running at that speed
PROBE_REF_S = 1.8e-3
_PROBE_MATS = np.eye(4)[None] * np.arange(1.0, 33.0)[:, None, None] + 0.01
LATENCY_NAMES = {  # subcommand kind -> end-to-end latency name
    "certify": "certify_s", "ks": "ks_s", "choi": "choi_s", "sweep": "sweep_row_s",
    "fixed_points": "fixed_points_s", "simulate": "simulate_s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_start_s() -> float:
    """Wall time of a fresh interpreter importing qqocert and building the CLI parser."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=_child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return dt


def import_split_s() -> dict:
    """Self import time of numpy, scipy and qqocert modules, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_SNIPPET],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import timing failed: {proc.stderr.strip()}")
    split = {"setup.numpy_s": 0.0, "setup.scipy_s": 0.0, "setup.qqocert_s": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        key = f"setup.{top}_s"
        if key in split:
            split[key] += self_us * 1e-6
    return split


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def metadata(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_name, "blas_threads": blas_threads(), "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "seed": seed,
    }


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond it, else None."""
    n = len(values)
    ordered = sorted(values)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def host_probe_s() -> float:
    """Host speed sample: best of three timings of a fixed slice of the benchmark's own work.

    The slice mixes a small numpy eigensolve with a pure-Python loop, like
    the CLI's own work, and never calls qqocert, so no change to the
    program can move it.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(10):
            np.linalg.eigvalsh(_PROBE_MATS)
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


def adjusted(wall: float, before: float, after: float) -> float:
    """A wall time rescaled to the reference host speed, by the probes taken around it."""
    return wall * PROBE_REF_S * 2.0 / (before + after)


def setup_runs() -> list:
    """(raw, adjusted) wall times of SETUP_REPEATS cold starts."""
    runs, before = [], host_probe_s()
    for _ in range(SETUP_REPEATS):
        raw = cold_start_s()
        after = host_probe_s()
        runs.append((raw, adjusted(raw, before, after)))
        before = after
    return runs


class Runner:
    """Closed-loop client: one call at a time, each checked after it returns.

    Untraced calls are bracketed by host probes, so each wall time is kept
    both as measured and adjusted to the reference host speed.
    """

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.latency = {}      # kind -> measured wall per call (per row for sweep)
        self.adjusted = {}     # kind -> the same, at the reference host speed
        self.adjusted_total = 0.0
        self.probes = []
        self.problems = []

    def round(self, calls, main=None, tracer=None) -> float:
        """Run one round; returns the summed measured wall time of its CLI calls."""
        main = main or self.main
        total = 0.0
        probe = host_probe_s() if tracer is None else None
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.call = self.attempted
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(call.argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failed call, not a crash
                code, problems = None, [f"raised {exc!r}"]
                err.write(traceback.format_exc())
            wall = perf_counter() - t0
            if code is not None:
                try:
                    problems = call.check(out.getvalue(), code)
                except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            self.attempted += 1
            total += wall
            if problems:
                self.failed += 1
                self.problems.append((call.argv, problems, err.getvalue()[-500:]))
            if tracer is None:
                after = host_probe_s()
                adj = adjusted(wall, probe, after)
                probe = after
                self.probes.append(after)
                self.adjusted_total += adj
                self.latency.setdefault(call.kind, []).append(wall / call.rows)
                self.adjusted.setdefault(call.kind, []).append(adj / call.rows)
        return total


def run_workload(name: str, seed: int, seconds: float, trace: bool, samples=None) -> dict:
    """One benchmark run; returns the result document (metrics plus details)."""
    import spans
    import workloads
    from qqocert import cli

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setup = setup_runs()
        wl = workloads.Workload(name, seed, workdir, samples)
        runner = Runner(cli.main)
        tracer = spans.Tracer() if trace else None
        plain, traced = [], []
        start = perf_counter()
        index = 0
        while True:
            t_round = perf_counter()
            plain.append(runner.round(wl.round(index)))
            if trace:
                undo = spans.install(tracer)
                try:
                    main = tracer.wrap("cli.main", None, cli.main)
                    traced.append(runner.round(wl.round(index), main=main, tracer=tracer))
                finally:
                    spans.uninstall(undo)
            index += 1
            now = perf_counter()
            if now - start + (now - t_round) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "rounds": index,
        "meta": metadata(seed), "attempted": runner.attempted, "failed": runner.failed,
        "problems": [{"argv": a, "problems": p, "stderr": e} for a, p, e in runner.problems[:20]],
        "latency": {LATENCY_NAMES[k]: {"median_s": statistics.median(v), "n": len(v),
                                       "tail": tail_percentile(v),
                                       "adjusted_median_s": statistics.median(runner.adjusted[k]),
                                       "samples": v} for k, v in runner.latency.items()},
        "setup_runs_s": [raw for raw, _ in setup],
        "host_probe_s": runner.probes,
    }
    if trace:
        layers = spans.layer_metrics(tracer.spans, len(traced))
        layers.update(import_split_s())
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        layers["trace.spans"] = len(tracer.spans) / len(traced)
        # the measured difference above carries this host's drift; this
        # estimate (spans per round times the cost of one span) does not
        layers["trace.span_cost_s"] = layers["trace.spans"] * spans.span_cost_s()
        doc["layers"] = layers
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl.gz")
    else:
        passed = runner.attempted - runner.failed

        def geomean_of_means(per_kind):
            return math.exp(statistics.fmean(math.log(statistics.fmean(v)) for v in per_kind.values()))

        # The bounded metrics are at the reference host speed: this host's
        # speed drifts by a quarter over seconds to minutes, which would
        # otherwise swamp a real change.  Measured values are kept beside them.
        doc["end_to_end"] = {
            "setup_s": statistics.median(adj for _, adj in setup),
            # means, not medians: a kind has as few as one heavy call per run
            "latency_geomean_s": geomean_of_means(runner.adjusted),
            "ops_per_s": passed / runner.adjusted_total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        doc["measured"] = {
            "setup_s": statistics.median(raw for raw, _ in setup),
            "latency_geomean_s": geomean_of_means(runner.latency),
            "ops_per_s": passed / sum(plain),
            "host_probe_s": statistics.median(runner.probes),
        }
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def result_line(doc: dict, spec: dict) -> dict:
    """The contract's last line: exactly the metrics BENCHMARK.json names for this mode."""
    names = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    values = doc["layers"] if doc["trace"] else doc["end_to_end"]
    return {
        "correct": doc["failed"] == 0, "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names},
    }


def report(doc: dict, spec: dict) -> None:
    """Human-readable lines: metadata, then every metric by name and unit."""
    print("meta " + json.dumps(doc["meta"], sort_keys=True))
    print(f"workload {doc['workload']} seed {doc['seed']} rounds {doc['rounds']} "
          f"attempted {doc['attempted']} failed {doc['failed']}")
    print(f"  failed_ratio = {doc['failed'] / doc['attempted']:.6g} ratio")
    for name, lat in doc["latency"].items():
        tail = lat["tail"]
        tail_txt = f"p{tail[0]:g} = {tail[1]:.6g} s" if tail else "no percentile has ten samples beyond it"
        print(f"  {name} = {lat['median_s']:.6g} s (median of n={lat['n']}; {tail_txt}; "
              f"{lat['adjusted_median_s']:.6g} s at the reference host speed)")
    for name, value in sorted(doc.get("measured", {}).items()):
        print(f"  measured {name} = {value:.6g}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted((doc.get("end_to_end") or doc.get("layers")).items()):
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    for argv, problems, stderr in doc["problems"]:
        print(f"  FAILED {' '.join(argv)}: {'; '.join(problems[:3])} {stderr.strip()[-200:]}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="family, general, dynamics or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qqocert" / "__init__.py").is_file():
        print(f"error: no qqocert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qqocert
    import workloads

    if not Path(qqocert.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qqocert from {qqocert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.workload == "all":
        # each workload in its own process, so peak memory is per workload
        failed = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
            failed += proc.returncode != 0
        return 1 if failed else 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(doc, spec)
    print(json.dumps(result_line(doc, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
