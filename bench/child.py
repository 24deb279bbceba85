"""Measuring process: runs one workload's items through ``respole.cli.main``.

Started by ``run.py`` in a fresh interpreter with the environment pinned.  It
imports respole, runs the first item and records the monotonic clock (the end
of set-up), runs the calibration kernel of ``calibrate.py`` a few times, then
either exits (a set-up probe) or runs the closed loop:

* untraced: passes over all items, one at a time, until ``--seconds`` of wall
  time have passed and at least one whole pass is done.  The calibration
  kernel runs between items, outside the timed region, after every
  ``CAL_EVERY_S`` of item time; each item time is scaled to reference
  seconds by the kernel samples around it.  An item's time is the median
  over its runs;
* traced: alternate untraced and traced passes over the first trace blocks
  plus one small item of each other workload, at least one pass of each
  kind, until ``--seconds`` have passed.

Every item's output is checked after its timer stops; an item fails when any
of its runs fails.  The last line on standard output is a JSON object that
``run.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibrate import EVERY_PART, kernel, speed_factor

CAL_EVERY_S = 0.05  # item time between two calibration samples
CAL_WINDOW = 3  # calibration samples on each side of an item that scale it
SETUP_CAL_RUNS = 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--items", required=True, help="items JSON written by run.py")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit after the first item")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    import respole.cli  # the import is part of set-up

    with open(args.items, encoding="utf-8") as fh:
        doc = json.load(fh)
    from workloads import Item

    items = [Item(**it) for it in doc["items"]]
    first_code, _, first_out = run_item(items[0].argv)
    ready = _now()
    setup_cal = [kernel(EVERY_PART) for _ in range(SETUP_CAL_RUNS)]
    if args.probe:
        print(json.dumps({"ready": ready, "setup_cal_s": setup_cal}))
        return 0

    from checks import check_item

    checker = Checker(items, check_item)
    checker.record(0, first_code, first_out)
    if args.trace:
        result = traced_loop(items, doc["trace"], checker, args.seconds, args.spans)
    else:
        result = untraced_loop(items[: doc["loop_items"]], checker, args.seconds, setup_cal,
                               doc["cal_weights"])
    result["ready"] = ready
    result["setup_cal_s"] = setup_cal
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def run_item(argv: list[str]) -> tuple[int, float, str]:
    """One ``respole.cli.main`` call with stdout and stderr captured; only the
    call itself is timed."""
    import respole.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = respole.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue()


class Checker:
    """Checks each output once; a repeat of an item with identical output
    reuses the verdict (the program is deterministic, so a repeat that
    differs is checked afresh).  ``item_verdicts`` keeps one verdict per
    item: its first failure, or ok when every run passed."""

    def __init__(self, items, check_item) -> None:
        self.items = items
        self.check_item = check_item
        self.verdicts: dict[int, tuple[tuple[int, bytes], object]] = {}
        self.item_verdicts: dict[int, object] = {}

    def record(self, idx: int, code: int, out: str):
        key = (code, hashlib.blake2b(out.encode(), digest_size=16).digest())
        seen = self.verdicts.get(idx)
        if seen is not None and seen[0] == key:
            return seen[1]
        verdict = self.check_item(self.items[idx], code, out)
        self.verdicts[idx] = (key, verdict)
        prev = self.item_verdicts.get(idx)
        if prev is None or prev.ok:
            self.item_verdicts[idx] = verdict
        return verdict

    def tally(self, indices) -> dict:
        """Distinct items attempted and passed among `indices`, failures by kind."""
        verdicts = [self.item_verdicts[i] for i in sorted(set(indices))]
        return {"attempted": len(verdicts), "ok": sum(v.ok for v in verdicts),
                **_tally(verdicts)}


def _tally(verdicts) -> dict:
    counts = {"exit2": 0, "exit3": 0, "check": 0}
    silent = []
    for v in verdicts:
        if not v.ok:
            counts[v.category] += 1
            if not v.visible:
                silent.append(v.reason)
    return {"failed_by": counts, "silent": silent}


def untraced_loop(items, checker: Checker, seconds: float, cal: list, weights) -> dict:
    runs: list[list[tuple[float, int]]] = [[] for _ in items]  # (seconds, calibration index)
    cal = list(cal)
    since_cal = 0.0
    idx = passes = 0
    start = _now()
    while not passes or _now() - start < seconds:
        code, elapsed, out = run_item(items[idx].argv)
        runs[idx].append((elapsed, len(cal)))
        checker.record(idx, code, out)
        since_cal += elapsed
        if since_cal >= CAL_EVERY_S:
            cal.append(kernel(weights))
            since_cal = 0.0
        idx = (idx + 1) % len(items)
        passes += idx == 0
    cal.append(kernel(weights))

    def ref_s(elapsed: float, j: int) -> float:
        return elapsed * speed_factor(cal[max(0, j - CAL_WINDOW): j + CAL_WINDOW], weights)

    cal_s = [1.0 / speed_factor([parts], weights) for parts in cal]  # slowdowns
    return {
        **checker.tally(range(len(items))),
        "item_ref_s": [statistics.median(ref_s(e, j) for e, j in r) for r in runs],
        "item_raw_s": [statistics.median(e for e, _ in r) for r in runs],
        "runs": sum(len(r) for r in runs),
        "wall_s": _now() - start,
        "cal_slowdown": {"samples": len(cal), "median": statistics.median(cal_s),
                         "min": min(cal_s), "max": max(cal_s)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_loop(items, trace: list[int], checker: Checker, seconds: float,
                spans_path: str | None) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    plain_s: list[float] = []
    passes: list[dict] = []
    start = _now()
    while not passes or _now() - start < seconds:
        for traced in (False, True):
            if traced:
                first_span = tracer.span_count()
                tracer.counters.clear()
            busy = 0.0
            verdicts = []
            for idx in trace:
                if traced:
                    tracer.item = idx
                    tracer.install()
                try:
                    code, elapsed, out = run_item(items[idx].argv)
                finally:
                    if traced:
                        tracer.uninstall()
                busy += elapsed
                verdicts.append(checker.record(idx, code, out))
            if traced:
                passes.append({
                    "busy_s": busy,
                    "layers": tracer.totals(first_span),
                    "counters": dict(tracer.counters),
                    **_tally(verdicts),
                })
            else:
                plain_s.append(busy)
    if spans_path:
        tracer.write(spans_path)
    return {
        **checker.tally(trace),
        "plain_pass_s": plain_s,
        "passes": passes,
        "spans": tracer.span_count(),
    }


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints only
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "respole_threads": os.environ.get("RESPOLE_THREADS"),
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
