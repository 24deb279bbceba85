"""respole benchmark: seeded CLI workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload tdot_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

The runner generates the workload's items from the seed (argv lists and
``--config`` device files), then starts fresh interpreters with the run
environment pinned: one process at a time, RESPOLE_THREADS=1 and one BLAS
thread.  Several set-up probes each import respole and run the first item;
one more process runs the closed loop (one client: each item starts when the
previous one has returned) and checks every output.  Times are scaled to
reference seconds by the calibration kernel of ``calibrate.py``, run next to
them, so the host's changing speed cancels out.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics untraced (``--trace 0``), the
per-layer metrics traced (``--trace 1``).  A result file with the
environment goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)
from calibrate import SETUP_WEIGHTS, speed_factor  # noqa: E402
from workloads import CAL_WEIGHTS, TRACE_BLOCKS, WORKLOADS, generate  # noqa: E402

BLAS_THREADS = 1  # OpenBLAS would take both cores of a 2-core box by default
# fresh interpreters per run; setup_s is their median
SETUP_RUNS = {"full": 5, "tiny": 2}
PROBE_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# traced function -> the fields reported for it
_LAYER_FIELDS = (
    ("siegert.poly_roots", ("calls", "self_ms")),
    ("siegert.secular_polynomial", ("self_ms",)),
    ("siegert.solve_poles", ("self_ms",)),
    ("poles.classify", ("calls", "self_ms")),
    ("feshbach.feshbach_pole_search", ("calls", "self_ms")),
    ("model.p_space_hamiltonian", ("calls",)),
    ("feshbach.build_h_eff", ("calls",)),
    ("oracle.pole_set_distance", ("self_ms",)),
    ("_format.dumps", ("self_ms",)),
    ("scattering.scattering_solve", ("calls", "self_ms")),
    ("scattering.transmission_sweep", ("self_ms",)),
    ("scattering.sweep_rows_csv", ("self_ms",)),
    ("cli.cmd_sweep", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("model.device_from_json", ("self_ms",)),
    ("oracle.build_report", ("self_ms",)),
    ("oracle.bound_energies_from_truncation", ("self_ms",)),
    ("oracle.finite_lattice_hamiltonian", ("self_ms",)),
    ("oracle.pole_residual_report", ("self_ms",)),
)
_UNITS = {"calls": "count", "self_ms": "ms"}


def _metric_name(span: str, field: str) -> str:
    # metric names start with a letter: _format.dumps reports as format.dumps
    return f"{span.lstrip('_')}.{field}"


PER_LAYER = tuple(
    (_metric_name(span, f), _UNITS[f]) for span, fields in _LAYER_FIELDS for f in fields
) + (
    ("feshbach.seeds_attempted", "count"),
    ("feshbach.poles_returned", "count"),
    ("feshbach.seed_yield", "frac"),
    ("failed.exit2", "count"),
    ("failed.exit3", "count"),
    ("failed.check", "count"),
    ("trace_overhead_frac", "frac"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([SRC, BENCH_DIR]),
        "PYTHONHASHSEED": "0",
        "RESPOLE_THREADS": "1",
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
        # a fixed mmap threshold: glibc otherwise raises it as large arrays
        # are freed, and peak_rss_mb would depend on the order of the items
        "MALLOC_MMAP_THRESHOLD_": str(128 * 1024),
    })
    return env


def run_child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start child.py, wait for it, return (launch time, its JSON result)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *args]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"measuring process timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"measuring process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("measuring process printed no result")
    return launched, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Generate, run and check one workload; the summary of one run."""
    work_dir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = generate(workload, seed, work_dir, size)
        trace_items = min(len(wl.items), TRACE_BLOCKS[workload] * wl.block_size)
        # each traced pass also runs the first (smallest) item of every other
        # workload, so every traced function is called in every traced run and
        # no per-layer time reads a flat 0
        coverage = [generate(other, seed, work_dir, size).items[0]
                    for other in WORKLOADS if other != workload] if trace else []
        n = len(wl.items)
        items_path = os.path.join(work_dir, "items.json")
        with open(items_path, "w", encoding="utf-8") as fh:
            json.dump({"items": [asdict(it) for it in wl.items + coverage],
                       "loop_items": n,
                       "cal_weights": CAL_WEIGHTS[workload],
                       "trace": list(range(trace_items)) + list(range(n, n + len(coverage)))},
                      fh)
        setup = []
        for _ in range(0 if trace else SETUP_RUNS[size] - 1):  # a traced run has no setup_s
            launched, res = run_child(["--items", items_path, "--seconds", "0", "--probe"],
                                      PROBE_TIMEOUT_S)
            setup.append(_setup_s(launched, res))
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv.gz")
        launched, res = run_child(
            ["--items", items_path, "--seconds", repr(seconds), "--trace", str(trace),
             "--spans", spans],
            timeout=2.0 * seconds + 90.0,
        )
        setup.append(_setup_s(launched, res))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "items_per_seed": len(wl.items),
        "work_per_item": {"unit": wl.work_unit,
                          "range": [min(it.work for it in wl.items),
                                    max(it.work for it in wl.items)]},
        "env": {**res["env"], "seed": seed},
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "silent_failures": res["silent"][:20],
        "correct": not res["silent"],
    }
    if trace:
        summary.update(_per_layer(res, trace_items + len(coverage)))
    else:
        summary.update(_end_to_end(res, setup))
    return summary


def _setup_s(launched: float, res: dict) -> float:
    """Launch to the end of the first item, in reference seconds."""
    return (res["ready"] - launched) * speed_factor(res["setup_cal_s"], SETUP_WEIGHTS)


def _end_to_end(res: dict, setup: list[float]) -> dict:
    """Over distinct items: each item's time is the median over its runs, in
    reference seconds; throughput is passed items over the summed item time."""
    lat_ms = [s * 1e3 for s in res["item_ref_s"]]
    n = len(lat_ms)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "throughput_per_s": (res["ok"] / sum(res["item_ref_s"]), n),
        "item_p50_ms": (statistics.median(lat_ms), n),
        "item_p90_ms": (statistics.quantiles(lat_ms, n=10)[8] if n >= 2 else lat_ms[0], n),
        "ok_frac": (res["ok"] / n, n),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
    }
    return {
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in END_TO_END},
        "samples": {name: values[name][1] for name, _ in END_TO_END},
        "failed_by": res["failed_by"],
        "failed_frac": 1.0 - res["ok"] / n,
        "item_runs": res["runs"],
        "wall_s": res["wall_s"],
        "raw_item_p50_ms": statistics.median(res["item_raw_s"]) * 1e3,
        "calibration_slowdown": res["cal_slowdown"],
        "setup_samples_s": setup,
    }


def _per_layer(res: dict, trace_items: int) -> dict:
    """Per-pass totals over the trace blocks; the median over traced passes."""
    passes = res["passes"]

    def med(get) -> float:
        return statistics.median(get(p) for p in passes)

    values = {}
    for span, fields in _LAYER_FIELDS:
        for f in fields:
            values[_metric_name(span, f)] = med(lambda p, s=span, f=f: p["layers"][s][f])
    seeds = med(lambda p: p["counters"].get("feshbach.seeds_attempted", 0))
    found = med(lambda p: p["counters"].get("feshbach.poles_returned", 0))
    values["feshbach.seeds_attempted"] = seeds
    values["feshbach.poles_returned"] = found
    values["feshbach.seed_yield"] = found / seeds if seeds else 0.0
    for cat in ("exit2", "exit3", "check"):
        values[f"failed.{cat}"] = med(lambda p, c=cat: p["failed_by"][c])
    values["trace_overhead_frac"] = (
        statistics.median(p["busy_s"] for p in passes) / statistics.median(res["plain_pass_s"])
        - 1.0
    )
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
        "samples": {name: len(passes) for name, _ in PER_LAYER},
        "trace_items": trace_items,
        "traced_passes": len(passes),
        "spans": res["spans"],
    }


def report(summary: dict) -> None:
    """Human-readable lines, and the result file."""
    w = summary["workload"]
    env = summary["env"]
    print(f"# {w} seed={summary['seed']} trace={summary['trace']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']}")
    print(f"# {w} work per item: {summary['work_per_item']['unit']} "
          f"{summary['work_per_item']['range']}; {summary['items_per_seed']} items per seed")
    for name, m in summary["metrics"].items():
        print(f"{w:<22} {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={summary['samples'][name]}")
    if "failed_by" in summary:
        fb = summary["failed_by"]
        print(f"{w:<22} {'failed_frac':<44} {summary['failed_frac']:>14.6g} frac   "
              f"(exit2={fb['exit2']} exit3={fb['exit3']} check={fb['check']} "
              f"of {summary['attempted']})")
    if "calibration_slowdown" in summary:
        cal = summary["calibration_slowdown"]
        print(f"# {w} {summary['attempted']} items in {summary['item_runs']} runs over "
              f"{summary['wall_s']:.1f} s; raw item p50 {summary['raw_item_p50_ms']:.4g} ms; "
              f"calibration kernel slowdown against the reference: median {cal['median']:.3f} "
              f"(min {cal['min']:.3f}, max {cal['max']:.3f}, n={cal['samples']})")
    for reason in summary["silent_failures"]:
        print(f"{w:<22} SILENT FAILURE: {reason}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"BENCH_{w}_seed{summary['seed']}_trace{summary['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed item time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every item and set-up, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "respole", "__init__.py")):
        print(f"error: no respole sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, args.trace, args.size)
            report(summary)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
