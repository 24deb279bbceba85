"""Compare the CLI output of two source trees, run for run.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  The runs are every item of the
four benchmark workloads for seeds 101-110, generated once by
``bench/workloads.py`` of CHANGE_TREE (its config files go to a temporary
directory both trees read), plus a fixed list of edge runs.  One child
process per tree calls ``respole.cli.main`` in process for every run, with
one BLAS thread, and hashes its stdout, stderr and exit code, and for a run
with ``--out`` the bytes of the file it wrote (or that it wrote none); an
exception that escapes ``main`` counts as its type and message.  The runs
whose hashes differ are printed, and the script exits 1 if any differ, else
0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

SEEDS = range(101, 111)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def edge_runs(work_dir: str) -> list[list[str]]:
    """Runs near the special cases of the program: sweeps through t1 = 0, at
    t1 = 0 only and across the band edges, zero and huge couplings under
    every method and format, every wavefunction index, weakly bound,
    decoupled, tiny-hopping, strongly coupled and uniformly scaled oracle
    runs, config files that are not valid UTF-8, sweep and transmission CSV whose fields leave
    the array formatter's fast range or straddle its row chunks,
    transmission through two antiresonances, where T falls below 1e-4,
    transmission on 6-8-site devices around one and two solve chunks, on
    a device with signed zeros and on a 5-site chain across k = pi/2, where
    E changes sign, once inside a partial solve chunk, and on a device
    singular at one grid k, a lead hopping so small that the
    companion matrix overflows, three
    devices at the class boundaries under every command that solves one
    device (the one-site device under ``oracle`` as well), the Feshbach
    route on two devices with levels past the float range, and both routes
    on a star of identical dots, on a dense 8-site device and on a device
    with an isolated level at -2t beside a weakly bound state, the
    outgoing-wave route and every wavefunction on a one-site device, on
    chains with the contact last and in the middle and on a device with a
    -0.0 hopping and a -0.0 onsite level, transmission where E = -2t cos k
    overflows, and T-dots,
    Decoupled levels and two uncoupled sites at energy scales from 1e-310
    to 1e300, config files whose values are malformed, and sweep and
    transmission CSV written to a file with ``--out``, one pass and several,
    and to a path that cannot be written, config paths that are a directory
    or missing, config files of truncated JSON or of a list, and
    ``transmission``, ``sweep`` and ``wavefunction`` with a grid flag
    missing or too small."""
    runs = []
    for start, stop, steps, eps_d in (("-1", "1", "21", "0.3"), ("-0.0", "-1", "11", "0.5"),
                                      ("0", "1", "11", "-2"), ("-0.5", "0.5", "2", "3"),
                                      ("0", "3", "301", "2.0")):
        runs.append(["sweep", "--param", "t1", "--from", start, "--to", stop, "--steps", steps,
                     "--eps-d", eps_d])
    for t1 in ("1e-7", "0", "-0.0", "0.1"):
        for start, stop in (("-2.5", "2.5"), ("2.5", "-2.5"), ("-4", "4")):
            runs.append(["sweep", "--param", "eps-d", "--from", start, "--to", stop,
                         "--steps", "41", "--t1", t1])
    runs.append(["sweep", "--param", "eps-d", "--from", "-2", "--to", "2", "--steps", "3",
                 "--t1", "1e-7", "--t", "1.0"])
    # rows around 256 and around the array formatter's passes of 512 rows:
    # 255-257, 511-513, 1023-1025 and 1028 rows; the t1 grids of 1025 and 2049
    # rows put their Decoupled row first in a pass (rows 512 and 1024).  A
    # t1 = 0 point gives 1 row and a coupled point 4
    for param, start, stop, steps, model in (("eps-d", "-3", "3", "255", ("--t1", "0")),
                                             ("eps-d", "-3", "3", "64", ("--t1", "0.4")),
                                             ("t1", "-1", "1", "65", ("--eps-d", "0.3")),
                                             ("eps-d", "-3", "3", "511", ("--t1", "0")),
                                             ("eps-d", "-3", "3", "128", ("--t1", "0.4")),
                                             ("t1", "-1", "1", "129", ("--eps-d", "0.3")),
                                             ("eps-d", "-3", "3", "1023", ("--t1", "0")),
                                             ("eps-d", "-3", "3", "256", ("--t1", "0.4")),
                                             ("t1", "-1", "1", "257", ("--eps-d", "0.3")),
                                             ("eps-d", "-3", "3", "257", ("--t1", "0.4")),
                                             ("t1", "-1", "1", "513", ("--eps-d", "-0.7"))):
        runs.append(["sweep", "--param", param, "--from", start, "--to", stop, "--steps", steps,
                     *model])
    # every point decoupled: a t1 range of one value, and t1 = 0 over eps-d;
    # then t1 over [-1, 1] with an even and an odd number of points
    runs.append(["sweep", "--param", "t1", "--from", "0", "--to", "0", "--steps", "3"])
    runs.append(["sweep", "--param", "eps-d", "--t1", "0", "--from", "-2", "--to", "2",
                 "--steps", "3"])
    for steps in ("40", "41"):
        runs.append(["sweep", "--param", "t1", "--from", "-1", "--to", "1", "--steps", steps,
                     "--eps-d", "-2.5"])
    # fields from 1e-25 to 1e10, on both sides of the formatter's fast range
    runs.append(["sweep", "--param", "eps-d", "--from", "-3", "--to", "3", "--steps", "41",
                 "--t", "1e-9", "--t1", "0.5"])
    for t1 in ("0", "-0.0", "1e16", "1e-7", "0.5"):
        for fmt in ("table", "csv", "json"):
            for method in ("siegert", "feshbach", "both"):
                runs.append(["poles", "--t1", t1, "--eps-d", "0.7", "--method", method,
                             "--format", fmt])
            runs.append(["equivalence", "--t1", t1, "--eps-d", "-0.3", "--format", fmt])
    for model in (("--t1", "1", "--eps-d", "0"), ("--t1", "0.3", "--eps-d", "2.5")):
        for index in range(-1, 11):
            runs.append(["wavefunction", *model, "--pole-index", str(index), "--xmax", "6"])
    for t1 in ("0.25", "0.1", "0.5"):
        for eps_d in ("-3", "3", "2", "-2"):
            for sites in ("10", "200"):
                runs.append(["oracle", "--t1", t1, "--eps-d", eps_d, "--sites", sites])
    # the oracle JSON at its edges: decoupled T-dots (empty energy lists, at
    # the default and at the fewest sites), a lead hopping so small that the
    # outgoing-wave route fails, a huge coupling, bound states so weak that
    # their self-check shifts cross the reporting edge, and one T-dot scaled
    # uniformly to a tiny and to a huge lead hopping
    for model in (("--t1", "0"), ("--t1", "0", "--eps-d", "3", "--sites", "10"),
                  ("--t", "1e-160", "--t1", "1", "--eps-d", "0.3", "--sites", "50"),
                  ("--t1", "1e8", "--eps-d", "0.3", "--sites", "50"),
                  ("--t1", "0.099951", "--eps-d", "0", "--sites", "400"),
                  ("--t", "1e-13", "--t1", "5e-14", "--eps-d", "3e-14", "--sites", "200"),
                  ("--t", "1e100", "--t1", "5e99", "--eps-d", "3e99", "--sites", "200")):
        runs.append(["oracle", *model])
    for name, raw in (("utf16.json", b"\xff\xfe\x00\x7b"), ("latin1.json", b'{"t1": "\xe9"}')):
        path = os.path.join(work_dir, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        runs.append(["poles", "--config", path])
        runs.append(["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "3",
                     "--config", path])
    # devices at the class boundaries of the per-device path: one site (roots
    # z = +-1, Threshold), three side sites at 2t (band-edge double roots with
    # pinned amplitudes) and a mirror chain with the contact in the middle
    # (levels the contact does not see)
    for name, model in (
            ("one_site.json", {"n_sites": 1, "onsite": [0.0], "hoppings": [], "contact": 0,
                               "lead_t": 1.0}),
            ("edge_star.json", {"n_sites": 4, "onsite": [0.3, 2.0, 2.0, 2.0],
                                "hoppings": [[0, 1, -1.0], [0, 2, -1.0], [0, 3, -1.0]],
                                "contact": 0, "lead_t": 1.0}),
            ("mirror_chain.json", {"n_sites": 5, "onsite": [0.4, -0.2, 0.1, -0.2, 0.4],
                                   "hoppings": [[0, 1, -0.8], [1, 2, -0.5], [2, 3, -0.5],
                                                [3, 4, -0.8]],
                                   "contact": 2, "lead_t": 1.0})):
        path = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": model}, fh)
        for fmt in ("table", "csv", "json"):
            for method in ("siegert", "feshbach", "both"):
                runs.append(["poles", "--config", path, "--method", method, "--format", fmt])
        for index in range(-1, 11):
            runs.append(["wavefunction", "--config", path, "--pole-index", str(index),
                         "--xmax", "6"])
        runs.append(["oracle", "--config", path, "--sites", "200"])
    # the Feshbach route on levels past the float range, which must print
    # only the typed error; a star of identical dots (a level repeated on
    # combinations the contact does not see), a dense 8-site device and an
    # isolated site at exactly -2t, both routes (there the outgoing-wave route
    # splits the band-edge double root into a bound and an antibound pole
    # 2.1e-8 from z = 1, and the Feshbach route gives z = 1 twice)
    dense = [[i, j, round(0.1 * (i - j) + 0.05 * (i * j % 7) - 0.6, 3)]
             for i in range(8) for j in range(i + 1, 8)]
    for name, model, method in (
            ("huge_split.json", {"n_sites": 2, "onsite": [1e308, -1e308],
                                 "hoppings": [[0, 1, 1e308]], "contact": 0, "lead_t": 1.0},
             "feshbach"),
            ("huge_level.json", {"n_sites": 2, "onsite": [0, 1e200], "hoppings": [[0, 1, 1.0]],
                                 "contact": 0, "lead_t": 1.0}, "feshbach"),
            ("identical_star.json", {"n_sites": 5, "onsite": [-0.3, 0.4, 0.4, 0.4, 0.4],
                                     "hoppings": [[0, 1, -0.7], [0, 2, 0.7], [0, 3, -0.7],
                                                  [0, 4, -0.7]],
                                     "contact": 0, "lead_t": 1.0}, "both"),
            ("dense_8.json", {"n_sites": 8, "onsite": [0.3, -1.2, 0.8, 1.9, -0.4, -2.1, 1.1, 0.0],
                              "hoppings": dense, "contact": 3, "lead_t": 1.3}, "both"),
            ("isolated_edge_level.json",
             {"n_sites": 4, "onsite": [2.0, 0.00017811426057442727, 0.02031493381749817, -2.0],
              "hoppings": [[0, 1, -2.0], [0, 2, 0.020724554901682537]], "contact": 0,
              "lead_t": 1.0}, "both")):
        path = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": model}, fh)
        runs.append(["poles", "--config", path, "--method", method, "--format", "json"])
    # the outgoing-wave companion's contact row and signed zeros: a one-site
    # device, chains with the contact last and in the middle, and a device
    # with a -0.0 hopping and a -0.0 onsite level, under the route's JSON and
    # every wavefunction index
    for name, model in (
            ("one_site_level.json", {"n_sites": 1, "onsite": [-0.7], "hoppings": [],
                                     "contact": 0, "lead_t": 0.8}),
            ("chain_contact_last.json", {"n_sites": 4, "onsite": [0.2, -0.9, 1.3, 0.5],
                                         "hoppings": [[0, 1, -0.8], [1, 2, 0.6], [2, 3, -1.1]],
                                         "contact": 3, "lead_t": 1.1}),
            ("chain_contact_middle.json", {"n_sites": 5, "onsite": [0.6, -0.3, 0.9, -1.4, 0.1],
                                           "hoppings": [[0, 1, -0.7], [1, 2, -1.2], [2, 3, 0.5],
                                                        [3, 4, -0.9]],
                                           "contact": 2, "lead_t": 0.9}),
            ("signed_zeros.json", {"n_sites": 3, "onsite": [0.5, -0.0, 1.2],
                                   "hoppings": [[0, 1, -0.6], [1, 2, -0.0], [0, 2, 0.4]],
                                   "contact": 1, "lead_t": 1.0})):
        path = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": model}, fh)
        runs.append(["poles", "--config", path, "--method", "siegert", "--format", "json"])
        for index in range(2 * model["n_sites"]):
            runs.append(["wavefunction", "--config", path, "--pole-index", str(index),
                         "--xmax", "6"])
    grid = ["--kmin", "0.05", "--kmax", "3.09"]
    # E = -2t cos k overflows at t = 1e308: exit 3 naming the first k
    runs.append(["transmission", *grid, "--steps", "5", "--t", "1e308", "--t1", "0.5",
                 "--eps-d", "0.3"])
    for t in ("1e17", "1e-6"):
        runs.append(["transmission", *grid, "--steps", "301", "--t", t, "--t1", "0.5",
                     "--eps-d", "0.3"])
    for steps in ("511", "512", "513", "1023", "1024", "1025"):
        runs.append(["transmission", *grid, "--steps", steps, "--t1", "0.7", "--eps-d", "-1.1"])
    # through the antiresonance at E = eps_d, where T falls below 1e-4
    runs.append(["transmission", "--kmin", "1.70", "--kmax", "1.74", "--steps", "401",
                 "--t1", "1", "--eps-d", "0.3"])
    runs.append(["transmission", "--kmin", "0.90", "--kmax", "0.95", "--steps", "257",
                 "--t1", "0.4", "--eps-d", "-1.2"])
    # 6-8-site devices on either side of one and two solve chunks of 256 k,
    # and an 8-site device with an uncoupled level at E(k) of one grid k, in
    # a middle chunk and alone in the last chunk: exit 3 naming that k
    step = (3.09 - 0.05) / 512
    devices = []
    for n in (6, 7):
        path = os.path.join(work_dir, f"chain_{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"n_sites": n, "onsite": [0.4 - 0.3 * i for i in range(n)],
                                 "hoppings": [[i, i + 1, -0.9 + 0.1 * i] for i in range(n - 1)]
                                 + [[0, n - 1, 0.35]],
                                 "contact": 1, "lead_t": 1.2}}, fh)
        devices.append(path)
    devices.append(os.path.join(work_dir, "dense_8.json"))
    for path in devices:
        for steps in ("255", "256", "257", "513"):
            runs.append(["transmission", "--config", path, *grid, "--steps", steps])
    # E = -2t cos k changes sign at k = pi/2, and with it the signed zeros of
    # E I - h: the signed-zero device and a 5-site chain over the full grid,
    # and over a grid whose last, partial solve chunk (rows 256-299) crosses
    # pi/2 between rows 259 and 260
    chain_5 = os.path.join(work_dir, "chain_5.json")
    with open(chain_5, "w", encoding="utf-8") as fh:
        json.dump({"model": {"n_sites": 5, "onsite": [0.0, -0.6, -0.0, 0.9, 0.0],
                             "hoppings": [[0, 1, -0.8], [1, 2, -1.1], [2, 3, -0.0],
                                          [3, 4, -0.7], [0, 4, 0.3]],
                             "contact": 2, "lead_t": 0.9}}, fh)
    for path in (os.path.join(work_dir, "signed_zeros.json"), chain_5):
        runs.append(["transmission", "--config", path, *grid, "--steps", "301"])
        runs.append(["transmission", "--config", path, "--kmin", "0.05", "--kmax", "1.8",
                     "--steps", "300"])
    for k_bad in (0.05 + 300 * step, 3.09):
        path = os.path.join(work_dir, f"singular_at_{k_bad!r}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"n_sites": 8, "onsite": [0.3, -0.5, 0.2, 0.9, -1.1, 0.6, -0.2,
                                                          -2.0 * math.cos(k_bad)],
                                 "hoppings": [[i, i + 1, -0.7] for i in range(6)],
                                 "contact": 2, "lead_t": 1.0}}, fh)
        runs.append(["transmission", "--config", path, *grid, "--steps", "513"])
    runs.append(["poles", "--t", "1e-300", "--t1", "1e10"])
    runs.append(["sweep", "--param", "t1", "--t", "1e-300", "--from", "1e9", "--to", "1e10",
                 "--steps", "2"])
    # extreme energy scales: T-dots whose h/t leaves the float range in one
    # form or another, Decoupled levels whose Bloch roots do, and two
    # uncoupled sites at level 0 on a tiny lead hopping
    for model in (("--method", "feshbach", "--t", "1e154", "--t1", "1", "--eps-d", "0.3"),
                  ("--method", "both", "--t", "1e154", "--t1", "1", "--eps-d", "0.3"),
                  ("--method", "both", "--t", "1e160", "--t1", "1e160", "--eps-d", "3e159"),
                  ("--method", "both", "--t", "1e-8", "--t1", "1", "--eps-d", "-2"),
                  ("--method", "both", "--t", "1e-300", "--t1", "1e-100", "--eps-d", "-2"),
                  ("--t", "1", "--t1", "0", "--eps-d", "1e300", "--format", "csv"),
                  ("--t", "1e154", "--t1", "0", "--eps-d", "0.3", "--format", "csv"),
                  ("--t", "1e-300", "--t1", "0", "--eps-d", "0"),
                  ("--t", "1e-300", "--t1", "0", "--eps-d", "1e150")):
        runs.append(["poles", *model])
    runs.append(["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "2",
                 "--t", "1e160", "--eps-d", "0.3"])
    for lead_t in (1.0, 1e-300, 1e-310):
        path = os.path.join(work_dir, f"uncoupled_{lead_t!r}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"model": {"n_sites": 2, "onsite": [0.0, 0.0], "hoppings": [],
                                 "contact": 0, "lead_t": lead_t}}, fh)
        runs.append(["poles", "--config", path, "--method", "feshbach"])
    # malformed config values, in a full device, in the T-dot shorthand and at
    # the top level: a boolean, a number given as a string, an integral and a
    # non-integral float where an integer belongs, an integer too large for a
    # float, a two-element hopping and a container of the wrong kind
    good = {"n_sites": 2, "onsite": [0.0, 0.5], "hoppings": [[0, 1, -0.8]], "contact": 0,
            "lead_t": 1.0}
    tdot = {"t": 1.0, "t1": 0.5, "eps_d": 0.3}
    malformed = [(name, cfg, ["poles"]) for name, cfg in (
        ("device_bool", {"model": {**good, "contact": True}}),
        ("device_bool_amp", {"model": {**good, "hoppings": [[0, 1, False]]}}),
        ("device_string", {"model": {**good, "onsite": ["0", 0.5]}}),
        ("device_integral_floats", {"model": {**good, "n_sites": 2.0, "contact": 0.0,
                                              "hoppings": [[0.0, 1.0, -0.8]]}}),
        ("device_fraction", {"model": {**good, "hoppings": [[0, 0.5, -0.8]]}}),
        ("device_int_beyond_float", {"model": {**good, "lead_t": 10**400}}),
        ("device_pair", {"model": {**good, "hoppings": [[0, 1]]}}),
        ("device_scalar_onsite", {"model": {**good, "onsite": 0.5}}),
        ("device_scalar_hoppings", {"model": {**good, "hoppings": 5}}),
        ("tdot_bool", {"model": {"tdot": {**tdot, "t1": True}}}),
        ("tdot_string", {"model": {"tdot": {**tdot, "eps_d": "0.3"}}}),
        ("tdot_integral_floats", {"model": {"tdot": {**tdot, "t": 1.0, "t1": 2.0}}}),
        ("tdot_int_beyond_float", {"model": {"tdot": {**tdot, "t": 10**400}}}),
        ("tdot_list", {"model": {"tdot": [1.0, 0.5, 0.3]}}),
        ("tdot_missing", {"model": {"tdot": {"t": 1.0, "t1": 0.5}}}),
        ("top_bool", {"t1": True}),
        ("top_string", {"eps_d": "0.3"}),
        ("top_int_beyond_float", {"t": 10**400}))]
    for i, value in enumerate((30.0, 30.5, True, "30")):
        malformed.append((f"sites_{i}", {"sites": value}, ["oracle", "--t1", "0.5"]))
    for i, value in enumerate((5.0, 5.5, True, "5")):
        malformed.append((f"steps_{i}", {"kmin": 0.2, "kmax": 3, "steps": value},
                          ["transmission"]))
    for name, cfg, command in malformed:
        path = os.path.join(work_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        runs.append([*command, "--config", path])
    # the CSV commands written to a file: one pass and several (with the
    # classification-change lines after a sweep's rows), and a directory as
    # the path, which is an input error
    out_dir = os.path.join(work_dir, "out")
    os.mkdir(out_dir)
    for i, argv in enumerate((
            ["sweep", "--param", "eps-d", "--from", "-3", "--to", "3", "--steps", "41",
             "--t1", "0.5"],
            ["sweep", "--param", "t1", "--from", "-1", "--to", "1", "--steps", "257",
             "--eps-d", "0.3"],
            ["transmission", *grid, "--steps", "301", "--t1", "0.4", "--eps-d", "-1.2"],
            ["transmission", *grid, "--steps", "1025", "--t1", "0.7", "--eps-d", "-1.1"])):
        runs.append([*argv, "--out", os.path.join(out_dir, f"{argv[0]}_{i}.csv")])
    runs.append(["transmission", *grid, "--steps", "5", "--out", out_dir])
    # the remaining input errors: a config path that is a directory or names
    # no file, a config file of truncated JSON or of a list, and grid flags
    # that are missing or too small
    runs.append(["poles", "--config", work_dir])
    runs.append(["poles", "--config", os.path.join(work_dir, "missing.json")])
    for name, text in (("truncated.json", '{"t1": 0.5,'), ("list.json", "[1, 2]")):
        path = os.path.join(work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        runs.append(["poles", "--config", path])
    runs.append(["transmission", "--kmin", "0.1", "--steps", "5"])
    runs.append(["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "1"])
    runs.append(["wavefunction", "--pole-index", "0", "--xmax", "0"])
    return runs


def all_runs(tree: str, work_dir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every workload item and every edge run."""
    sys.path.insert(0, os.path.join(tree, "bench"))
    from workloads import WORKLOADS, generate

    runs = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for i, item in enumerate(generate(name, seed, work_dir).items):
                runs.append((f"{name}/{seed}/{i}", item.argv))
    runs += [(f"edge/{i}", argv) for i, argv in enumerate(edge_runs(work_dir))]
    return runs


def child(tree: str, runs_path: str, out_path: str) -> None:
    """Run every argv of ``runs_path`` through ``main`` of ``tree``; write one
    hash per run to ``out_path``."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from respole.cli import main

    with open(runs_path, encoding="utf-8") as fh:
        runs = json.load(fh)
    hashes = []
    for _, argv in runs:
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        if written is not None and os.path.isfile(written):
            os.remove(written)  # left by the other tree's run
        out, err = io.StringIO(), io.StringIO()
        # a fresh warnings state per run, as in a new process: otherwise a
        # warning shows only in the first run that raises it
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = repr(main(argv))
            except Exception as exc:  # noqa: BLE001 - an escape is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
        digest = hashlib.sha256()
        for part in (out.getvalue(), err.getvalue(), code):
            digest.update(part.encode("utf-8", "surrogatepass") + b"\0")
        if written is not None:
            if os.path.isfile(written):
                with open(written, "rb") as fh:
                    digest.update(b"file\0" + fh.read())
            else:
                digest.update(b"no file\0")
        hashes.append([digest.hexdigest(), code])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work_dir:
        runs = all_runs(os.path.abspath(args.change), work_dir)
        runs_path = os.path.join(work_dir, "runs.json")
        with open(runs_path, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
        results = {}
        for side in ("parent", "change"):
            out_path = os.path.join(work_dir, f"{side}.json")
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), args.parent, args.change,
                 "--child", os.path.abspath(getattr(args, side)), runs_path, out_path],
                env={**os.environ, **SINGLE_THREAD}, check=True,
            )
            with open(out_path, encoding="utf-8") as fh:
                results[side] = json.load(fh)
    differ = 0
    for (label, argv), (a, code_a), (b, code_b) in zip(runs, results["parent"], results["change"]):
        if a != b:
            differ += 1
            print(f"DIFFERS {label}: exit {code_a} -> {code_b}: {' '.join(argv)}")
    workload = sum(not label.startswith("edge/") for label, _ in runs)
    print(f"{len(runs)} runs ({workload} workload, {len(runs) - workload} edge): "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
