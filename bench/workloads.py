"""Seeded input generators for the four benchmark workloads.

Each generator turns a seed into a list of items.  An item is one
``respole.cli.main(argv)`` call; the generator writes any ``--config`` device
file it needs before timing starts, so the program sees only argv and files.

Items come in blocks.  Every block holds one item from each size stratum of
its workload (each device size, for devices), in shuffled order.  The sizes
do not depend on the seed: block b takes the point at fraction
frac(0.5 + b / golden ratio) of every stratum, so the whole set of sizes, and
any first few blocks of it, spread evenly over the range and are the same
for every seed.  The seed draws the rest: parameters, devices and order.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("tdot_sweep", "device_validation", "transmission_spectrum", "oracle_audit")


@dataclass
class Item:
    """One CLI request and what its output check needs to know."""

    argv: list[str]
    kind: str
    work: int  # parameter points, k values or lattice sites per side
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    block_size: int
    work_unit: str


# Work per item.  A range (low, high, strata) yields one size from each of
# `strata` equal slices of [low, high] per block, so sizes spread evenly over
# the range and no percentile sits on the edge between two fixed sizes.
# Full size is the benchmark; tiny keeps the smoke test short.
SIZES = {
    "full": {
        "sweep_steps": (101, 301, 3),
        "device_sites": (1, 2, 3, 4, 5, 6, 7, 8),
        "k_steps": (1000, 3000, 3),
        "oracle_sites": (100, 400, 4),
    },
    "tiny": {
        "sweep_steps": (11, 31, 2),
        "device_sites": (1, 3, 6),
        "k_steps": (50, 150, 2),
        "oracle_sites": (60, 100, 2),
    },
}

# Shares of the calibration kernel's parts (interpreter, small numpy, small
# and large LAPACK solves, batched numpy) that track each workload's time best
# as the host's load changes: the sweep is mostly small-numpy work, the
# oracle one dense eigensolve too large for the cache, device_validation
# mostly batched Newton steps.
CAL_WEIGHTS = {
    "tdot_sweep": (0.0, 0.8, 0.2, 0.0, 0.0),
    "device_validation": (0.1, 0.2, 0.2, 0.0, 0.5),
    "transmission_spectrum": (0.1, 0.6, 0.3, 0.0, 0.0),
    "oracle_audit": (0.0, 0.0, 0.0, 1.0, 0.0),
}

# Blocks per seed: at full size one pass over them takes about 14 s of a
# 15-second run at the host's usual speed (10 s when fast, 20 s when slow);
# a run makes at least one whole pass.
BLOCKS = {
    "full": {"tdot_sweep": 27, "device_validation": 46,
             "transmission_spectrum": 25, "oracle_audit": 28},
    "tiny": {name: 2 for name in WORKLOADS},
}

# Blocks covered by one traced pass (the unit of the per-layer totals).
TRACE_BLOCKS = {
    "tdot_sweep": 4,
    "device_validation": 8,
    "transmission_spectrum": 4,
    "oracle_audit": 4,
}


_GOLDEN = (5 ** 0.5 - 1) / 2


def _strata(block: int, low: int, high: int, count: int) -> list[int]:
    """One integer from each of `count` equal slices of [low, high], at the
    same fraction of every slice; the fraction runs through a golden-ratio
    sequence over the blocks."""
    width = (high - low + 1) / count
    u = (0.5 + block * _GOLDEN) % 1.0
    return [low + int((i + u) * width) for i in range(count)]


def _f(x: float) -> str:
    return repr(float(x))


def _write_config(work_dir: str, name: str, model: dict) -> str:
    path = os.path.join(work_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"model": model}, fh)
    return path


def random_device(rng: random.Random, n: int) -> dict:
    """Random device of n sites in the JSON form ``device_from_json`` reads.

    Bonds form a random spanning tree plus extra bonds, each other pair with
    probability 0.25; the contact site is random.
    """
    order = list(range(n))
    rng.shuffle(order)
    bonds = {}
    for pos in range(1, n):
        i, j = order[pos], order[rng.randrange(pos)]
        bonds[(min(i, j), max(i, j))] = None
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in bonds and rng.random() < 0.25:
                bonds[(i, j)] = None

    def amp() -> float:
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)

    return {
        "n_sites": n,
        "onsite": [rng.uniform(-2.0, 2.0) for _ in range(n)],
        "hoppings": [[i, j, amp()] for (i, j) in bonds],
        "contact": rng.randrange(n),
        "lead_t": 1.0,
    }


def tdot_model(t: float, t1: float, eps_d: float) -> dict:
    return {"tdot": {"t": t, "t1": t1, "eps_d": eps_d}}


def _tdot_sweep_block(rng: random.Random, sizes: dict, work_dir: str, block: int) -> list[Item]:
    items = []
    for param in ("eps-d", "t1"):
        for steps in _strata(block, *sizes["sweep_steps"]):
            steps |= 1  # odd, so an eps-d grid has its middle point at 0
            if param == "eps-d":
                # half-width a multiple of 1/4 above the band edge: the grid then
                # holds eps_d = 0 exactly at its middle point and crosses |eps_d| = 2
                half = 0.25 * rng.randint(9, 16)
                t1 = math.exp(rng.uniform(math.log(0.1), math.log(2.0)))
                argv = ["sweep", "--param", "eps-d", "--from", _f(-half), "--to", _f(half),
                        "--steps", str(steps), "--t1", _f(t1)]
                meta = {"param": "eps_d", "t": 1.0, "t1": t1, "eps_d": None,
                        "start": -half, "stop": half}
            else:
                # from the decoupled dot up through the bound/anti-bound transitions
                top = rng.uniform(1.5, 3.0)
                eps_d = rng.uniform(-3.0, 3.0)
                argv = ["sweep", "--param", "t1", "--from", "0", "--to", _f(top),
                        "--steps", str(steps), "--eps-d", _f(eps_d)]
                meta = {"param": "t1", "t": 1.0, "t1": None, "eps_d": eps_d,
                        "start": 0.0, "stop": top}
            meta["steps"] = steps
            items.append(Item(argv, "sweep", steps, meta))
    return items


def _device_validation_block(rng: random.Random, sizes: dict, work_dir: str,
                             block: int) -> list[Item]:
    models = [random_device(rng, n) for n in sizes["device_sites"]]
    # an ordinary T-dot and a near-threshold one (band edge, tiny coupling)
    models.append(tdot_model(1.0, rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0)))
    edge_t1 = math.exp(rng.uniform(math.log(1e-6), math.log(1e-3)))
    models.append(tdot_model(1.0, edge_t1, rng.choice((-2.0, 2.0))))
    items = []
    for idx, model in enumerate(models):
        path = _write_config(work_dir, f"dv-{block}-{idx}.json", model)
        n = model["n_sites"] if "n_sites" in model else 2
        argv = ["poles", "--method", "both", "--format", "json", "--config", path]
        items.append(Item(argv, "poles", n, {"model": model, "n_sites": n}))
    return items


def _transmission_block(rng: random.Random, sizes: dict, work_dir: str, block: int) -> list[Item]:
    items = []
    for s_idx, steps in enumerate(_strata(block, *sizes["k_steps"])):
        k_min = rng.uniform(0.01, 0.3)
        k_max = math.pi - rng.uniform(0.01, 0.3)
        grid = ["--kmin", _f(k_min), "--kmax", _f(k_max), "--steps", str(steps)]
        t1, eps_d = rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0)
        items.append(Item(
            ["transmission", *grid, "--t1", _f(t1), "--eps-d", _f(eps_d)],
            "transmission", steps,
            {"model": tdot_model(1.0, t1, eps_d), "k_min": k_min, "k_max": k_max,
             "steps": steps},
        ))
        model = random_device(rng, rng.randint(3, 8))
        path = _write_config(work_dir, f"tr-{block}-{s_idx}.json", model)
        items.append(Item(
            ["transmission", *grid, "--config", path], "transmission", steps,
            {"model": model, "k_min": k_min, "k_max": k_max, "steps": steps},
        ))
    return items


# Hard-wall precondition of the oracle: the slowest bound state must decay
# below this amplitude squared, |z|**(2N), before it reaches the wall.
WALL_DECAY = 1e-8
TDOT_GRID_T1 = (0.25, 0.5, 1.0, 1.5, 2.0)
TDOT_GRID_EPS = (-3.0, -2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 3.0)


def device_arrays(model: dict) -> tuple[np.ndarray, int, float]:
    """Device block, contact site and lead hopping, straight from the JSON."""
    if "tdot" in model:
        td = model["tdot"]
        h = np.array([[0.0, -td["t1"]], [-td["t1"], td["eps_d"]]])
        return h, 0, float(td["t"])
    h = np.diag(np.asarray(model["onsite"], dtype=float))
    for i, j, amp in model["hoppings"]:
        h[i, j] = h[j, i] = amp
    return h, model["contact"], float(model["lead_t"])


def _slowest_bound_z(model: dict) -> float:
    """Largest |z| below 1 among the poles, from a companion eigensolve of
    z (E(z) - H_eff(z)) = a2 z^2 - h z - t I, a2 = diag(-t, .., +t at contact)."""
    h, c, t = device_arrays(model)
    n = h.shape[0]
    a2_inv = -np.eye(n) / t
    a2_inv[c, c] = 1.0 / t
    comp = np.block([[np.zeros((n, n)), np.eye(n)], [t * a2_inv, a2_inv @ h]])
    mags = np.abs(np.linalg.eigvals(comp))
    return float(mags[mags < 1.0].max(initial=0.0))


def _wall_holds(model: dict, sites: int) -> bool:
    return _slowest_bound_z(model) ** (2 * sites) < WALL_DECAY


def _oracle_block(rng: random.Random, sizes: dict, work_dir: str, block: int) -> list[Item]:
    # T-dot points of the acceptance suite's grid and small random devices,
    # drawn again until the hard wall at N sites holds every bound state (the
    # oracle's stated precondition; criterion 9 shows what happens otherwise)
    items = []
    for s_idx, sites in enumerate(_strata(block, *sizes["oracle_sites"])):
        while True:
            t1, eps_d = rng.choice(TDOT_GRID_T1), rng.choice(TDOT_GRID_EPS)
            if _wall_holds(tdot_model(1.0, t1, eps_d), sites):
                break
        items.append(Item(
            ["oracle", "--sites", str(sites), "--t1", _f(t1), "--eps-d", _f(eps_d)],
            "oracle", sites, {"model": tdot_model(1.0, t1, eps_d), "sites": sites},
        ))
        while True:
            model = random_device(rng, rng.randint(2, 4))
            if _wall_holds(model, sites):
                break
        path = _write_config(work_dir, f"or-{block}-{s_idx}.json", model)
        items.append(Item(
            ["oracle", "--sites", str(sites), "--config", path], "oracle", sites,
            {"model": model, "sites": sites},
        ))
    return items


_BLOCKS = {
    "tdot_sweep": (_tdot_sweep_block, "parameter points"),
    "device_validation": (_device_validation_block, "device sites"),
    "transmission_spectrum": (_transmission_block, "k values"),
    "oracle_audit": (_oracle_block, "lattice sites per side"),
}


def generate(name: str, seed: int, work_dir: str, size: str = "full") -> Workload:
    """All items of one workload for one seed; config files go to work_dir."""
    if name not in _BLOCKS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    make_block, unit = _BLOCKS[name]
    rng = random.Random(f"{name}:{seed}")
    sizes = SIZES[size]
    items: list[Item] = []
    block_size = 0
    for b in range(BLOCKS[size][name]):
        block = make_block(rng, sizes, work_dir, b)
        rng.shuffle(block)
        block_size = len(block)
        items.extend(block)
    # set-up ends with the first item: make it the smallest, so set-up time
    # hardly depends on the seed
    first = min(range(len(items)), key=lambda i: items[i].work)
    items.insert(0, items.pop(first))
    return Workload(items, block_size, unit)
