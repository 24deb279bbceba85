import contextlib
import io
import json
import math
import random
import re
import signal
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import respole.cli
import respole.oracle
import respole.wavefunction
from respole import (
    DeviceSpec,
    ParameterError,
    build_report,
    device_from_json,
    feshbach_pole_search,
    make_tdot,
    pole_set_distance,
    solve_poles,
)
from respole._format import dumps, format_float
from respole.cli import main
from respole.errors import NumericalError
from respole.scattering import SOLVE_CHUNK

POLE_HEADER = "z_re,z_im,k_re,k_im,E_re,E_im,class,amp0_re,amp0_im,ampd_re,ampd_im"


def pole_to_record(pole) -> dict:
    """The CSV row and JSON object of one pole, written out key by key, so
    the output tests check the layout without reading it from ``cli``."""
    return {
        "z_re": pole.z.real,
        "z_im": pole.z.imag,
        "k_re": pole.k.real,
        "k_im": pole.k.imag,
        "E_re": pole.E.real,
        "E_im": pole.E.imag,
        "class": pole.pole_class.value,
        "amp0_re": pole.amp0.real,
        "amp0_im": pole.amp0.imag,
        "ampd_re": pole.amp_d.real,
        "ampd_im": pole.amp_d.imag,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poles_table_default(capsys):
    code, out, err = run(capsys, "poles", "--t", "1", "--t1", "1", "--eps-d", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5  # header + 4 poles
    assert "BoundLower" in out and "Resonant" in out


def test_poles_json_schema(capsys):
    code, out, _ = run(capsys, "poles", "--t", "1", "--t1", "1", "--eps-d", "0",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 4
    for rec in data:
        assert set(rec) == set(POLE_HEADER.split(","))
    classes = sorted(rec["class"] for rec in data)
    assert classes == ["AntiResonant", "BoundLower", "BoundUpper", "Resonant"]


def test_poles_csv(capsys):
    code, out, _ = run(capsys, "poles", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == POLE_HEADER
    # every field is format_float of the default T-dot's pole value
    expected = [
        [format_float(v) if k != "class" else v for k, v in pole_to_record(p).items()]
        for p in solve_poles(make_tdot(1.0, 1.0, 0.0))
    ]
    rows = [line.split(",") for line in lines[1:]]
    assert rows == expected and len(rows) == 4
    assert {"-0", "1"} <= {f for row in rows for f in row}


def test_poles_both_reports_distance(capsys):
    code, out, _ = run(capsys, "poles", "--method", "both")
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert "max |dz|" in last
    assert float(last.split("=")[-1]) < 1e-9


def test_poles_both_json(capsys):
    code, out, _ = run(capsys, "poles", "--method", "both", "--format", "json")
    data = json.loads(out)
    assert set(data) == {"siegert", "feshbach", "max_dz"}
    assert data["max_dz"] < 1e-9


def test_equivalence_alias(capsys):
    code_a, out_a, _ = run(capsys, "equivalence", "--format", "json")
    code_b, out_b, _ = run(capsys, "poles", "--method", "both", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_poles_validation_exit_code(capsys):
    code, _, err = run(capsys, "poles", "--t", "0")
    assert code == 2
    assert "t must be" in err


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, "poles", "--no-such-flag")
    assert code == 2
    assert "usage" in err.lower()


def test_numerical_failure_maps_to_3(capsys, monkeypatch):
    import respole.cli as cli

    def boom(spec):
        raise NumericalError("forced")

    monkeypatch.setattr(cli, "solve_poles", boom)
    code, _, err = run(capsys, "poles")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ("poles", "--t", "1e-300", "--t1", "1e10"),
    ("sweep", "--param", "t1", "--t", "1e-300", "--from", "1e9", "--to", "1e10",
     "--steps", "2"),
])
def test_companion_overflow_prints_only_the_typed_error(capsys, argv):
    # t1 / t overflows the companion matrix; numpy's warning must not reach
    # stderr, with or without the suite's warnings-as-errors filter
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "numerical failure: companion eigensolve did not converge\n"


def test_overflowing_transmission_prints_only_the_typed_error(capsys):
    # E = -2t cos k overflows at t = 1e308; numpy's warnings from the matrix
    # fill must not reach stderr, with or without warnings-as-errors
    argv = ("transmission", "--kmin", "0.05", "--kmax", "3.09", "--steps", "5",
            "--t", "1e308", "--t1", "0.5", "--eps-d", "0.3")
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "numerical failure: inner system ill-conditioned at k = 0.05\n"


HUGE_SPLIT = {"n_sites": 2, "onsite": [1e308, -1e308], "hoppings": [[0, 1, 1e308]], "contact": 0,
              "lead_t": 1.0}
# a level the contact does not see, 1e200 times the lead hopping
HUGE_LEVEL = {"n_sites": 2, "onsite": [0, 1e200], "hoppings": [[0, 1, 1.0]], "contact": 0,
              "lead_t": 1.0}


@pytest.mark.parametrize("model, method, message", [
    # levels past the float range: eigh returns them, the Aberth iteration
    # cannot settle
    (HUGE_SPLIT, "feshbach", "4 of 4 Aberth iterates still moving"),
    # the outgoing-wave companion holds h/t = 1e200 itself, which no
    # power-of-two unit removes
    (HUGE_LEVEL, "siegert", "a secular root is zero or not finite"),
], ids=["huge_split", "huge_level_siegert"])
def test_huge_levels_print_only_the_typed_error(capsys, tmp_path, model, method, message):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"model": model}), encoding="utf-8")
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, "poles", "--method", method, "--config", str(config))
        assert (code, out, err) == (3, "", f"numerical failure: {message}\n")


# a subnormal lead hopping under levels and bonds up to 1.7e308: the contact
# amplitude C is about -1.6e280 i sin k, so |C|**2 leaves the float range
SQUARE_OVERFLOW = {"n_sites": 4,
                   "onsite": [9.027e-321, 0.2633268234094993, 6.846724090569898e+153,
                              -3.0255772997161083e+307],
                   "hoppings": [[0, 2, -1e8], [1, 2, 1.7e308], [1, 3, -1e154]], "contact": 0,
                   "lead_t": 1e-320}
# levels and bonds near the float range on a lead hopping of 1e300: numpy's
# det of the 5 x 5 secular matrices divides by zero
NEAR_RANGE = {"n_sites": 5,
              "onsite": [8.921540281025877e+306, 3.2344193002904267e+299, 4.951794718977501e+307,
                         -6.785933118958585e+153, 4.78761057332452e+153],
              "hoppings": [[0, 1, -1.0], [0, 3, 1e-300], [0, 4, -1e8], [1, 3, 1e200],
                           [1, 4, 1e300], [2, 3, -1e-320]],
              "contact": 1, "lead_t": 1e300}
# a hub with four identical side dots and the contact on one of them: a
# level repeated on a cluster that the contact sees, which the Feshbach route
# deflates with an SVD
IDENTICAL_STAR = {"n_sites": 5, "onsite": [-0.3, 0.4, 0.4, 0.4, 0.4],
                  "hoppings": [[0, 1, -0.7], [0, 2, 0.7], [0, 3, -0.7], [0, 4, -0.7]],
                  "contact": 1, "lead_t": 1.0}


def test_amplitude_whose_square_overflows_exits_3_naming_its_k(capsys, tmp_path):
    config = tmp_path / "square_overflow.json"
    config.write_text(json.dumps({"model": SQUARE_OVERFLOW}), encoding="utf-8")
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, "transmission", "--kmin", "0.1", "--kmax", "3",
                                 "--steps", "7", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == "numerical failure: inner system ill-conditioned at k = 0.1\n"


def test_oracle_near_the_float_range_prints_no_numpy_warning(capsys, tmp_path):
    # the row sums of the device block overflow: only the typed error; then
    # a device whose secular determinants divide by zero: only the report
    config = tmp_path / "near_range.json"
    config.write_text(json.dumps({"model": NEAR_RANGE}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = dumps(build_report(device_from_json(NEAR_RANGE), 30)) + "\n"
    for action in ("error", "default"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            code, out, err = run(capsys, "oracle", "--sites", "20", "--t", "1e300",
                                 "--t1", "1e308", "--eps-d", "1e308")
            assert (code, out) == (3, "")
            assert err == ("numerical failure: device energies inf out of range for lead "
                           "hopping 1.000e+300\n")
            code, out, err = run(capsys, "oracle", "--sites", "30", "--config", str(config))
            assert (code, out, err) == (0, report, "")


def failing_linalg(*args):
    raise np.linalg.LinAlgError("forced")


@pytest.mark.parametrize("solver, argv, message", [
    ("eigvals", ("sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "3"),
     "companion eigensolve did not converge"),
    ("eigh", ("poles", "--method", "feshbach"), "closed-device eigensolve did not converge"),
    ("svd", ("poles", "--method", "feshbach", "--config", None),
     "cluster deflation did not converge"),
], ids=["sweep_eigvals", "feshbach_eigh", "feshbach_svd"])
def test_lapack_failure_exits_3_with_one_line(capsys, tmp_path, monkeypatch, solver, argv,
                                              message):
    config = tmp_path / "identical_star.json"
    config.write_text(json.dumps({"model": IDENTICAL_STAR}), encoding="utf-8")
    monkeypatch.setattr(np.linalg, solver, failing_linalg)
    argv = [str(config) if a is None else a for a in argv]
    assert run(capsys, *argv) == (3, "", f"numerical failure: {message}\n")


def test_feshbach_route_solves_a_level_1e200_above_the_lead(capsys, tmp_path):
    # in units of 2**e the level reads about 0.7 and the lead hopping 1e-200:
    # the unseen level's closed-form pair and the visible level's threshold
    # pair are all in range
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"model": HUGE_LEVEL}), encoding="utf-8")
    code, out, err = run(capsys, "poles", "--method", "feshbach", "--config", str(config),
                         "--format", "json")
    assert (code, err) == (0, "")
    poles = [(complex(p["z_re"], p["z_im"]), p["class"]) for p in json.loads(out)]
    expected = [(-1e200, "AntiBound"), (-1.0, "Threshold"), (-1e-200, "BoundUpper"),
                (1.0, "Threshold")]
    assert [c for _, c in poles] == [c for _, c in expected]
    for (z, _), (want, _) in zip(poles, expected):
        assert abs(z - want) <= 1e-15 * abs(want)


def test_transmission_sweep_output(capsys):
    code, out, _ = run(
        capsys, "transmission", "--t", "1", "--t1", "1", "--eps-d", "0.3",
        "--kmin", "0.1", "--kmax", "3.0", "--steps", "291",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,E,T,R,ReB,ImB,ReC,ImC"
    assert len(lines) == 292
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for row in rows:
        assert abs(row[2] + row[3] - 1.0) < 1e-12
    k_star = math.acos(-0.15)
    k_min_t = min(rows, key=lambda r: r[2])[0]
    grid_nearest = min((r[0] for r in rows), key=lambda k: abs(k - k_star))
    assert k_min_t == pytest.approx(grid_nearest)


def test_transmission_validation(capsys):
    code, _, err = run(capsys, "transmission", "--kmin", "0.1", "--kmax", "4",
                       "--steps", "10")
    assert code == 2
    assert "pi" in err


def test_sweep_eps_d(capsys):
    code, out, _ = run(
        capsys, "sweep", "--param", "eps-d", "--from", "-3", "--to", "3",
        "--steps", "601", "--t", "1", "--t1", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    data = [l for l in lines[1:] if not l.startswith("#")]
    comments = [l for l in lines if l.startswith("#")]
    assert len(data) == 601 * 4
    by_value = {}
    for line in data:
        fields = line.split(",")
        by_value.setdefault(fields[0], []).append(fields[7])
    assert len(by_value) == 601
    for classes in by_value.values():
        assert len(classes) == 4
        assert sum(c.startswith("Bound") for c in classes) == 2
    # t = t1 = 1 stays in the resonant region over the whole range
    assert comments == ["# no classification changes"]
    row0 = next(l for l in data if l.startswith("0,") or l.startswith("-0,"))
    assert row0  # eps_d = 0 row exists


def test_sweep_detects_transition(capsys):
    code, out, _ = run(
        capsys, "sweep", "--param", "eps-d", "--from", "-3", "--to", "3",
        "--steps", "121", "--t", "1", "--t1", "0.5",
    )
    assert code == 0
    comments = [l for l in out.strip().split("\n") if l.startswith("#")]
    assert len(comments) == 2  # one transition on each side
    assert all("classification change" in c for c in comments)
    assert all("AntiBound" in c for c in comments)


def test_sweep_rejects_unsupported_parameter(capsys):
    code, _, err = run(capsys, "sweep", "--param", "t", "--from", "0.5", "--to", "2",
                       "--steps", "10")
    assert code == 2
    assert "invalid choice" in err
    assert "eps-d" in err


def test_sweep_rejects_a_device_that_is_not_a_tdot(tmp_path, capsys):
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"model": {
        "n_sites": 3, "onsite": [0, 0.5, -0.2], "hoppings": [[0, 1, -0.8], [1, 2, -0.6]],
        "contact": 0, "lead_t": 1}}))
    code, out, err = run(capsys, "sweep", "--param", "t1", "--from", "0", "--to", "1",
                         "--steps", "3", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "only T-dot models" in err


@pytest.mark.parametrize("bounds, message", [
    (["--from", "0", "--to=inf"], "sweep --to must be finite, got inf"),
    (["--from=nan", "--to", "1"], "sweep --from must be finite, got nan"),
    (["--from=-1e308", "--to=1e308"], "sweep range --to minus --from must be finite, got inf"),
    (["--from", "0", "--to=1e308"], "sweep values of t1 must be finite"),
], ids=["to_inf", "from_nan", "range_overflow", "grid_overflow"])
def test_sweep_rejects_non_finite_range(bounds, message, capsys):
    code, out, err = run(capsys, "sweep", "--param", "t1", *bounds, "--steps", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_wavefunction_rows(capsys):
    code, out, _ = run(capsys, "wavefunction", "--pole-index", "0", "--xmax", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,re,im,abs"
    assert len(lines) == 43  # 41 lattice rows + dot row
    assert lines[-1].startswith("d,")


def test_wavefunction_index_validation(capsys):
    code, _, err = run(capsys, "wavefunction", "--pole-index", "9")
    assert code == 2
    assert "out of range" in err


def test_oracle_report(capsys):
    code, out, _ = run(capsys, "oracle", "--sites", "200")
    assert code == 0
    report = json.loads(out)
    assert report["bound_compare"]["max_abs_diff"] < 1e-8
    assert len(report["poles"]) == 4


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "poles", "--format", "json", "--eps-d", "0.7")
    _, out2, _ = run(capsys, "poles", "--format", "json", "--eps-d", "0.7")
    assert out1 == out2
    _, t1, _ = run(capsys, "transmission", "--kmin", "0.2", "--kmax", "3.0",
                   "--steps", "57")
    _, t2, _ = run(capsys, "transmission", "--kmin", "0.2", "--kmax", "3.0",
                   "--steps", "57")
    assert t1 == t2


def test_transmission_singular_grid_point(capsys):
    # t1 = 0 leaves the dot row of E - H_eff empty where E(k) = eps_d
    eps_d = repr(-2.0 * math.cos(0.7))
    code, out, err = run(capsys, "transmission", "--t1", "0", "--eps-d", eps_d,
                         "--kmin", "0.7", "--kmax", "2.0", "--steps", "5")
    assert code == 3
    assert out == ""
    assert "inner system singular at k = 0.7" in err


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"tdot": {"t": 1.0, "t1": 0.5, "eps_d": 0.0}},
        "kmin": 0.2, "kmax": 3.0, "steps": 5,
    }))
    code, out, _ = run(capsys, "transmission", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 6
    # flags override the config model
    code, out_flag, _ = run(capsys, "poles", "--config", str(cfg), "--t1", "1",
                            "--format", "json")
    code2, out_direct, _ = run(capsys, "poles", "--t1", "1", "--format", "json")
    assert out_flag == out_direct


def test_config_generalized_device(tmp_path, capsys):
    cfg = tmp_path / "dev.json"
    cfg.write_text(json.dumps({
        "model": {
            "n_sites": 3,
            "onsite": [0.0, 0.5, -0.2],
            "hoppings": [[0, 1, -0.8], [1, 2, -0.6]],
            "contact": 0,
            "lead_t": 1.0,
        }
    }))
    code, out, _ = run(capsys, "poles", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 6
    # model flags cannot override a non-tdot device
    code, _, err = run(capsys, "poles", "--config", str(cfg), "--t1", "2")
    assert code == 2


CHAIN_WITH_RING = {"n_sites": 5, "onsite": [0.4, -0.3, 0.9, -1.2, 0.2],
                   "hoppings": [[0, 1, -0.8], [0, 3, 0.4], [1, 2, -0.5], [1, 4, 0.3],
                                [2, 3, -0.6], [3, 4, -0.9]],
                   "contact": 2, "lead_t": 1.1}
TDOT_MODEL = {"n_sites": 2, "onsite": [0.0, 0.3], "hoppings": [[0, 1, -0.5]], "contact": 0,
              "lead_t": 1.0}


@pytest.mark.parametrize("model, argv", [
    (CHAIN_WITH_RING, ["poles", "--method", "both", "--format", "json"]),
    (CHAIN_WITH_RING, ["transmission", "--kmin", "0.1", "--kmax", "3", "--steps", "40"]),
    (CHAIN_WITH_RING, ["oracle", "--sites", "30"]),
    (CHAIN_WITH_RING, ["wavefunction", "--pole-index", "3", "--xmax", "4"]),
    (TDOT_MODEL, ["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "11"]),
    (TDOT_MODEL, ["sweep", "--param", "eps-d", "--from", "-2", "--to", "2", "--steps", "11"]),
    (TDOT_MODEL, ["poles", "--t1", "0.7", "--format", "csv"]),
], ids=["poles", "transmission", "oracle", "wavefunction", "sweep_t1", "sweep_eps_d",
        "tdot_flag_override"])
def test_reversed_and_reordered_bonds_print_the_same_bytes(model, argv, tmp_path, capsys):
    # a bond's orientation and its place in the list are not part of the device
    shuffled = {**model, "hoppings": [[j, i, amp] for i, j, amp in model["hoppings"][::-1]]}
    outputs = []
    for name, device in (("canonical.json", model), ("shuffled.json", shuffled)):
        path = tmp_path / name
        path.write_text(json.dumps({"model": device}))
        outputs.append(run(capsys, *argv, "--config", str(path)))
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs[1] == outputs[0]


def test_poles_csv_ampd_is_the_non_contact_site(tmp_path, capsys):
    # the T-dot with its sites swapped: the lead sits on site 1, the level on site 0
    cfg = tmp_path / "swapped.json"
    cfg.write_text(json.dumps({
        "model": {"n_sites": 2, "onsite": [0.3, 0.0], "hoppings": [[0, 1, -1.0]],
                  "contact": 1, "lead_t": 1.0}
    }))
    code, out, _ = run(capsys, "poles", "--config", str(cfg), "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == POLE_HEADER and len(lines) == 5
    for line in lines[1:]:
        rec = dict(zip(POLE_HEADER.split(","), line.split(",")))
        E = complex(float(rec["E_re"]), float(rec["E_im"]))
        ampd = complex(float(rec["ampd_re"]), float(rec["ampd_im"]))
        assert (float(rec["amp0_re"]), float(rec["amp0_im"])) == (1.0, 0.0)
        # row of site 0: (E - 0.3) amp_d = -1 * amp0
        assert abs(ampd - (-1.0 / (E - 0.3))) < 1e-10 * abs(ampd)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "poles.csv"
    code, out, _ = run(capsys, "poles", "--format", "csv", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith(POLE_HEADER)


def test_transmission_output_file_matches_stdout(tmp_path, capsys):
    # the grid spans two chunk edges of the stacked solve
    argv = ["transmission", "--kmin", "0.05", "--kmax", "3.05",
            "--steps", str(2 * SOLVE_CHUNK + 37), "--t1", "0.6", "--eps-d", "-0.4"]
    path = tmp_path / "t.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    assert path.read_bytes() == expected.encode()
    assert len(expected.splitlines()) == 2 * SOLVE_CHUNK + 38


def test_grid_too_large_to_allocate_exits_2(capsys):
    # 1e15 steps need 7 PiB for the k grid alone, so nothing is allocated
    code, out, err = run(capsys, "transmission", "--kmin", "0.1", "--kmax", "3",
                         "--steps", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: ")
    assert "Traceback" not in err


def test_sweep_grid_too_large_to_allocate_exits_2(capsys):
    # the sweep grid is one array, so 1e15 steps fail at once instead of
    # filling memory one value at a time
    code, out, err = run(capsys, "sweep", "--param", "t1", "--from", "0", "--to", "1",
                         "--steps", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("transmission", "--kmin", "0.1", "--kmax", "1", "--steps", "10000000000000000000",
     "--t1", "0.5", "--eps-d", "0.3"),
    ("sweep", "--param", "eps-d", "--from", "-1", "--to", "1",
     "--steps", "10000000000000000000", "--t1", "0.5"),
    ("wavefunction", "--pole-index", "0", "--xmax", "10000000000000000000"),
    ("oracle", "--sites", "4000000000"),
], ids=["transmission", "sweep", "wavefunction", "oracle"])
def test_grid_larger_than_any_array_exits_2(capsys, argv):
    # numpy refuses these sizes with a ValueError rather than a MemoryError
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: ")
    assert "Traceback" not in err


def test_wavefunction_amplitude_beyond_the_float_range_exits_3(capsys):
    # |z| = 1e5: z**61 is finite and z**62 is not
    code, out, err = run(capsys, "wavefunction", "--t1", "1e5", "--pole-index", "2",
                         "--xmax", "100")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: lead amplitude z**|x| at x = 62 leaves the "
                          "float range")
    code, out, err = run(capsys, "wavefunction", "--t1", "1e5", "--pole-index", "2",
                         "--xmax", "61")
    assert code == 0
    assert out.count("inf") == 0 and len(out.splitlines()) == 1 + 123 + 1


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the test with TimeoutError if the block runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_wavefunction_grid_too_large_to_allocate_exits_2(capsys):
    # the lead grid is one array, so 1e15 sites fail before any sample is
    # computed instead of filling memory one sample at a time
    def no_sample(pole, x):
        raise AssertionError("a sample was computed before the grid was allocated")

    with time_limit(60), mock.patch.object(respole.wavefunction, "q_space_reconstruct", no_sample):
        code, out, err = run(capsys, "wavefunction", "--pole-index", "0",
                             "--xmax", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large: ")


def sweep_param_column(out: str) -> list[float]:
    return [float(line.split(",", 1)[0]) for line in out.splitlines()[1:]
            if not line.startswith("#")]


SWEEP_ENDPOINTS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(param=st.sampled_from(("t1", "eps-d")), start=SWEEP_ENDPOINTS, stop=SWEEP_ENDPOINTS,
       same=st.booleans(), steps=st.integers(2, 40))
def test_sweep_grid_is_the_float_formula(param, start, stop, same, steps):
    stop = start if same else stop
    grid = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    # a T-dot has four poles, or its one Decoupled level where t1 = 0
    expected = [v for v in grid
                for _ in range(1 if param == "t1" and v == 0.0 else 4)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                     "--steps", str(steps)])
    assert code == 0
    assert [v.hex() for v in sweep_param_column(out.getvalue())] == [v.hex() for v in expected]


@pytest.mark.parametrize("argv, flag, value", [
    (["poles"], "--eps-d", "-1e-05"),
    (["poles", "--format", "csv"], "--t1", "-1E+2"),
    (["sweep", "--param", "t1", "--to", "1", "--steps", "5"], "--from", "-1e-3"),
    (["sweep", "--param", "eps-d", "--from", "-2", "--steps", "5"], "--to", "-1.5e-1"),
    (["transmission", "--kmin", "0.1", "--kmax", "3", "--steps", "7"], "--eps-d", "-3.e-1"),
], ids=["poles-eps-d", "poles-t1", "sweep-from", "sweep-to", "transmission-eps-d"])
def test_negative_exponent_after_a_flag_is_its_value(argv, flag, value, capsys):
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0
    assert run(capsys, *argv, flag, value) == joined


def test_negative_exponent_with_trailing_text_is_still_refused(capsys):
    code, out, err = run(capsys, "poles", "--eps-d", "-1e-05x")
    assert (code, out) == (2, "")
    assert "argument --eps-d: expected one argument" in err


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "poles", "--format", "csv", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output file:")
    assert "Traceback" not in err
    assert not path.parent.exists()


# Two inputs on which the former seed-grid Newton search failed: a T-dot at
# the band edge with a tiny coupling (it exited 3) and an 8-site device (it
# returned 15 of the 16 poles).
ROUTE_REGRESSIONS = {
    "near_threshold_tdot": {"tdot": {"t": 1.0, "t1": 9.180578285395806e-06, "eps_d": 2.0}},
    "eight_site_device": {
        "n_sites": 8,
        "onsite": [0.4555686543276334, -0.7336474126513717, 1.1525218523630798,
                   1.4625452492877944, 1.1862406898494364, -1.055393318667019,
                   1.8633579038413135, -0.2930773478121127],
        "hoppings": [[0, 1, 1.3105730598585936], [0, 7, -1.0400569441598861],
                     [0, 6, -1.024740967162789], [3, 7, -1.2875726811955106],
                     [0, 5, -0.41680292092374904], [1, 4, -1.2467218709737484],
                     [0, 2, -0.33963652676200534], [0, 3, -1.4777076012439623],
                     [1, 2, -1.1504806069751983], [1, 3, -0.5778016522055798],
                     [1, 6, 1.3209720943566234], [2, 3, 0.8150555033120386],
                     [2, 4, 1.472131779092628], [4, 5, -1.1137901104652228]],
        "contact": 4,
        "lead_t": 1.0,
    },
}


@pytest.mark.parametrize("name", sorted(ROUTE_REGRESSIONS))
def test_poles_both_routes_agree_where_newton_failed(name, tmp_path, capsys):
    model = ROUTE_REGRESSIONS[name]
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"model": model}))
    code, out, err = run(capsys, "poles", "--method", "both", "--format", "json",
                         "--config", str(cfg))
    assert code == 0, err
    data = json.loads(out)
    n = model.get("n_sites", 2)
    assert len(data["siegert"]) == len(data["feshbach"]) == 2 * n
    assert data["max_dz"] < 1e-9


@pytest.mark.parametrize("command, cfg", [
    (["oracle"], {"sites": "abc"}),
    (["transmission", "--kmax", "3", "--steps", "5"], {"kmin": "x"}),
    (["poles"], {"t1": [1]}),
    (["poles"], {"model": {"tdot": {"t": "abc", "t1": 1, "eps_d": 0}}}),
    (["transmission"], {"steps": 5.9, "kmin": 0.2, "kmax": 3}),
    (["oracle"], {"sites": 30.9}),
    (["oracle", "--sites", "30"], {"t1": True}),
    (["poles"], {"model": {"tdot": {"t": 1, "t1": True, "eps_d": 0}}}),
    (["poles"], {"model": {"n_sites": 2.7, "onsite": [0, 0.5], "hoppings": [[0, 1, -1]],
                           "contact": True, "lead_t": 1}}),
    (["poles"], {"model": {"n_sites": 2.7, "onsite": [0, 0.5], "hoppings": [[0, 1, -1]],
                           "contact": 0, "lead_t": 1}}),
    (["poles"], {"model": {"n_sites": 2, "onsite": [0, 0.5], "hoppings": [[0, 1, -1]],
                           "contact": True, "lead_t": 1}}),
    (["poles"], {"model": {"n_sites": 2, "onsite": [0, 0.5], "hoppings": [[0, 1.5, -1]],
                           "contact": 0, "lead_t": 1}}),
    (["poles"], {"model": {"n_sites": 2, "onsite": [0, False], "hoppings": [[0, 1, -1]],
                           "contact": 0, "lead_t": 1}}),
    (["poles"], {"model": {"tdot": {"t": "1", "t1": "0.5", "eps_d": "0"}}}),
    (["poles"], {"model": {"n_sites": "2", "onsite": [0, 0.5], "hoppings": [[0, 1, -1]],
                           "contact": "0", "lead_t": "1"}}),
    (["oracle"], {"sites": "30"}),
    (["transmission"], {"kmin": "0.1", "kmax": "3", "steps": "4"}),
    (["poles"], {"t1": 10 ** 400}),
], ids=["sites", "kmin", "t1", "tdot_t", "steps_fraction", "sites_fraction", "t1_bool",
        "tdot_t1_bool", "device_fraction_and_bool", "n_sites_fraction", "contact_bool",
        "hopping_index_fraction", "onsite_bool", "tdot_strings", "device_strings",
        "sites_string", "transmission_strings", "t1_int_beyond_float"])
def test_config_value_of_wrong_type_exits_2(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["poles"],
    ["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "3"],
], ids=["poles", "sweep"])
@pytest.mark.parametrize("raw", [b"\xff\xfe\x00\x7b", b'{"t1": "\xe9"}'],
                         ids=["utf16_bom", "latin1_in_string"])
def test_config_that_is_not_utf8_exits_2(command, raw, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, *command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config file is not valid UTF-8")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["", "missing.json"], ids=["directory", "missing_file"])
def test_config_file_that_cannot_be_read_exits_2(name, tmp_path, capsys):
    path = tmp_path / name
    with pytest.raises(OSError) as exc:
        open(path, encoding="utf-8")
    code, out, err = run(capsys, "poles", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read config file: {exc.value}\n"


@pytest.mark.parametrize("text, message", [
    ('{"t1": 0.5,', "config file is not valid JSON: Expecting property name enclosed in "
                    "double quotes: line 1 column 12 (char 11)"),
    ("[1, 2]", "config file must hold a JSON object"),
], ids=["truncated", "list"])
def test_config_file_that_is_not_a_json_object_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run(capsys, "poles", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["transmission", "--kmin", "0.1", "--steps", "5"],
     "transmission needs --kmin, --kmax and --steps"),
    (["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "1"],
     "sweep needs at least 2 steps, got 1"),
    (["wavefunction", "--pole-index", "0", "--xmax", "0"], "--xmax must be >= 1, got 0"),
], ids=["transmission_without_kmax", "sweep_of_one_step", "wavefunction_xmax_0"])
def test_missing_or_too_small_grid_flags_exit_2(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_oracle_newton_that_does_not_converge_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(respole.oracle, "MAX_NEWTON", 1)
    code, out, err = run(capsys, "oracle", "--t1", "0.5", "--eps-d", "3", "--sites", "50")
    assert code == 3
    assert out == ""
    assert err == ("numerical failure: bound-state Newton iteration failed to converge "
                   "in 1 steps\n")


def test_config_device_accepts_integral_numbers(tmp_path, capsys):
    ints = {"n_sites": 2, "onsite": [0, 0.5], "hoppings": [[0, 1, -1]], "contact": 1,
            "lead_t": 1}
    floats = {**ints, "n_sites": 2.0, "hoppings": [[0.0, 1.0, -1]], "contact": 1.0}
    outs = []
    for k, model in enumerate((ints, floats)):
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps({"model": model}))
        code, out, err = run(capsys, "poles", "--format", "csv", "--config", str(path))
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["poles", "--t1", "1e16"],
    ["sweep", "--param", "t1", "--from", "1e-300", "--to", "1e300", "--steps", "4"],
], ids=["poles", "sweep"])
def test_large_coupling_is_a_numerical_failure(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "Warning" not in err and caught == []


def test_large_coupling_below_the_limit_still_solves(capsys):
    code, out, err = run(capsys, "poles", "--t1", "1e8", "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)) == 4


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_poles_feshbach_route_formats(fmt, capsys):
    model = ("--t1", "0.7", "--eps-d", "0.4")
    code, out, err = run(capsys, "poles", "--method", "feshbach", "--format", fmt, *model)
    assert code == 0, err
    spec = make_tdot(1.0, 0.7, 0.4)
    reference = solve_poles(spec)
    if fmt == "json":
        rows = [(complex(r["z_re"], r["z_im"]), r["class"]) for r in json.loads(out)]
    elif fmt == "csv":
        lines = out.strip().split("\n")
        assert lines[0] == POLE_HEADER
        fields = [line.split(",") for line in lines[1:]]
        rows = [(complex(float(f[0]), float(f[1])), f[6]) for f in fields]
    else:
        lines = out.strip().split("\n")
        assert lines[0].split() == ["z", "k", "E", "class"]
        rows = [(complex(line.split()[0]), line.split()[3]) for line in lines[1:]]
    assert [c for _, c in rows] == [p.pole_class.value for p in reference]
    for (z, _), p in zip(rows, reference):
        assert abs(z - p.z) < 1e-9


def test_poles_both_csv_ends_with_max_dz(capsys):
    code, out, _ = run(capsys, "poles", "--method", "both", "--format", "csv")
    assert code == 0
    _, siegert_only, _ = run(capsys, "poles", "--format", "csv")
    body, last = out.rstrip("\n").rsplit("\n", 1)
    assert body + "\n" == siegert_only
    assert last.startswith("# max_dz = ")
    assert float(last.removeprefix("# max_dz = ")) < 1e-9


def test_oracle_reads_sites_from_config(tmp_path, capsys):
    # a weakly bound dot, so the hard-wall energies depend on the lattice size
    model = ("--t1", "0.25", "--eps-d", "0")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 12}))
    _, from_config, _ = run(capsys, "oracle", "--config", str(cfg), *model)
    _, from_flag, _ = run(capsys, "oracle", "--sites", "12", *model)
    _, default, _ = run(capsys, "oracle", *model)
    _, default_flag, _ = run(capsys, "oracle", "--sites", "200", *model)
    _, flag_over_config, _ = run(capsys, "oracle", "--config", str(cfg), "--sites", "200",
                                 *model)
    assert from_config == from_flag
    assert default == default_flag == flag_over_config
    assert from_config != default


def test_sweep_fields_are_format_float_of_the_pole(capsys):
    code, out, _ = run(capsys, "sweep", "--param", "t1", "--from", "0", "--to", "1",
                       "--steps", "3", "--eps-d", "0")
    assert code == 0
    expected = []
    for v in (0.0, 0.5, 1.0):
        for p in solve_poles(make_tdot(1.0, v, 0.0)):
            values = (v, p.z.real, p.z.imag, p.k.real, p.k.imag, p.E.real, p.E.imag)
            expected.append([format_float(x) for x in values] + [p.pole_class.value])
    rows = [line.split(",") for line in out.strip().split("\n")[1:]
            if not line.startswith("#")]
    assert rows == expected
    fields = {f for row in rows for f in row}
    assert {"-0", "1"} <= fields


def test_repeated_calls_in_one_process_give_the_same_results(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmin": 0.2, "kmax": 3.0, "steps": 4}))
    model = ("--t1", "0.6", "--eps-d", "0.3")
    calls = [
        ["equivalence", *model],
        ["poles", *model],
        ["transmission", "--config", str(cfg), "--steps", "5"],
        ["transmission", "--config", str(cfg)],
        *(["poles", "--method", m, "--format", f, *model]
          for m in ("siegert", "feshbach", "both") for f in ("table", "csv", "json")),
        ["equivalence", "--format", "csv"],
        ["sweep", "--param", "t1", "--from", "0", "--to", "1", "--steps", "4"],
        ["wavefunction", "--pole-index", "1", "--xmax", "5", *model],
        ["oracle", "--sites", "30", *model],
        ["poles", "--t", "0"],
    ]
    first = [run(capsys, *argv) for argv in calls]
    # an equivalence call leaves no --method both behind for a plain poles call
    assert "max |dz|" in first[0][1] and "max |dz|" not in first[1][1]
    assert first[1] == run(capsys, "poles", "--method", "siegert", *model)
    # a --steps flag leaves nothing behind for a call that reads steps from the config
    assert len(first[2][1].splitlines()) == 6
    assert len(first[3][1].splitlines()) == 5
    for argv, expected in zip(calls, first):
        assert run(capsys, *argv) == expected, argv


def test_a_command_rebound_after_the_first_call_runs(monkeypatch, capsys):
    import respole.cli as cli

    argv = ("sweep", "--param", "eps-d", "--from", "0", "--to", "1", "--steps", "3")
    expected = run(capsys, *argv)
    seen = []
    original = cli.cmd_sweep

    def wrapped(*args):
        # the shape of a by-name wrapper such as a tracing span
        seen.append(args[0].param)
        return original(*args)

    monkeypatch.setattr(cli, "cmd_sweep", wrapped)
    assert run(capsys, *argv) == expected
    assert seen == ["eps-d"]

    def boom(spec):
        raise NumericalError("forced")

    monkeypatch.setattr(cli, "solve_poles", boom)
    code, _, err = run(capsys, "poles")
    assert code == 3
    assert "numerical failure: forced" in err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["poles", "--help"],
    ["--version"],
    ["poles", "--no-such-flag"],
    ["sweep", "--param", "bad", "--from", "0", "--to", "1", "--steps", "3"],
], ids=["help", "poles_help", "version", "unknown_flag", "bad_choice"])
def test_argparse_text_matches_a_fresh_parser(argv, monkeypatch, capsys):
    import respole.cli as cli

    def fresh():
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setenv("COLUMNS", "100")
    wide = fresh()
    assert run(capsys, *argv) == wide
    assert run(capsys, *argv) == wide
    monkeypatch.setenv("COLUMNS", "40")
    narrow = fresh()
    assert run(capsys, *argv) == narrow
    if argv[-1] == "--help":
        assert narrow != wide  # the text is wrapped at the width of each call


def reference_poles_json(spec, method, routes):
    """``poles --format json`` stdout built by ``dumps`` over the
    ``pole_to_record`` dicts, with ``max_dz`` when both routes run."""
    methods = list(routes) if method == "both" else [method]
    sets = {m: routes[m](spec) for m in methods}
    records = {m: [pole_to_record(p) for p in s] for m, s in sets.items()}
    if len(sets) == 1:
        return dumps(records[method]) + "\n"
    return dumps({**records, "max_dz": pole_set_distance(*sets.values())}) + "\n"


@st.composite
def json_devices(draw, n: int) -> DeviceSpec:
    """A connected device of n sites: a random spanning tree, bond amplitudes
    of magnitude 0.1-1.5, a random contact and lead hopping."""
    bonds = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    amplitude = st.floats(0.1, 1.5).flatmap(lambda a: st.sampled_from((a, -a)))
    return DeviceSpec(
        n_sites=n,
        onsite=tuple(draw(st.lists(st.floats(-2.5, 2.5), min_size=n, max_size=n))),
        hoppings=tuple((i, j, draw(amplitude)) for i, j in sorted(bonds)),
        contact=draw(st.integers(0, n - 1)),
        lead_t=draw(st.floats(0.5, 2.0)),
    )


@st.composite
def json_tdots(draw) -> tuple[float, float]:
    """(t1, eps_d) of a T-dot: decoupled at t1 = 0 or -0.0, near threshold,
    or anywhere."""
    kind = draw(st.sampled_from(("decoupled", "threshold", "tdot")))
    if kind == "decoupled":
        return draw(st.sampled_from((0.0, -0.0))), draw(st.floats(-3.0, 3.0))
    if kind == "threshold":
        t1 = math.exp(draw(st.floats(math.log(1e-6), math.log(1e-3))))
        return t1, draw(st.sampled_from((-2.0, 2.0)))
    return draw(st.floats(-2.0, 2.0)), draw(st.floats(-3.0, 3.0))


JSON_COMMANDS = st.sampled_from((
    ["poles", "--method", "siegert"], ["poles", "--method", "feshbach"],
    ["poles", "--method", "both"], ["equivalence"],
))


def assert_poles_json_matches_dumps(cmd, flags, spec, short):
    method = "both" if cmd == ["equivalence"] else cmd[-1]
    routes = {"siegert": solve_poles, "feshbach": feshbach_pole_search}
    if short:
        # the Aberth route loses a pole, so the counts differ and max_dz is inf
        routes["feshbach"] = lambda spec: feshbach_pole_search(spec)[1:]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(respole.cli, "feshbach_pole_search", routes["feshbach"]), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*cmd, *flags, "--format", "json"])
    try:
        expected = reference_poles_json(spec, method, routes)
    except (ParameterError, NumericalError):
        assert code in (2, 3) and out.getvalue() == ""
        return
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == expected
    if short and method == "both":
        assert out.getvalue().endswith('"max_dz": inf\n}\n')


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data(), cmd=JSON_COMMANDS, short=st.booleans())
def test_poles_json_on_random_devices_matches_dumps(n, data, cmd, short):
    spec = data.draw(json_devices(n))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "device.json"
        cfg.write_text(json.dumps({"model": asdict(spec)}))
        assert_poles_json_matches_dumps(cmd, ["--config", str(cfg)], spec, short)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(json_tdots(), JSON_COMMANDS, st.booleans())
def test_poles_json_on_tdots_matches_dumps(tdot, cmd, short):
    t1, eps_d = tdot
    # a bare flag followed by its value, which may be a negative exponent form
    flags = ["--t1", repr(t1), "--eps-d", repr(eps_d)]
    assert_poles_json_matches_dumps(cmd, flags, make_tdot(1.0, t1, eps_d), short)


def assert_oracle_json_matches_dumps(flags, spec, sites):
    """``oracle`` stdout is ``dumps`` of ``build_report`` and a newline, or
    the command fails with the error ``build_report`` raises; returns it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["oracle", *flags, "--sites", str(sites)])
    try:
        expected = dumps(build_report(spec, sites)) + "\n"
    except (ParameterError, NumericalError):
        assert code in (2, 3) and out.getvalue() == ""
        return out.getvalue()
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == expected
    return out.getvalue()


@pytest.mark.parametrize("n", range(1, 9))
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data(), sites=st.integers(10, 400))
def test_oracle_json_on_random_devices_matches_dumps(n, data, sites):
    spec = data.draw(json_devices(n))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "device.json"
        cfg.write_text(json.dumps({"model": asdict(spec)}))
        assert_oracle_json_matches_dumps(["--config", str(cfg)], spec, sites)


@pytest.mark.parametrize("t, t1, eps_d, sites, shown", [
    (1.0, 0.0, 0.5, 200, '"siegert": [],\n    "lattice": [],\n    "max_abs_diff": 0\n'),
    (1.0, 0.25, 3.0, 10, '"max_abs_diff": null\n'),
    (1e-160, 1.0, 0.3, 50, ""),
    (1.0, 1e8, 0.3, 50, '"class": "Resonant"'),
], ids=["decoupled", "counts_differ", "tiny_lead", "huge_coupling"])
def test_oracle_json_on_tdots_matches_dumps(t, t1, eps_d, sites, shown):
    # the tiny lead hopping fails in the outgoing-wave route, with no output
    flags = ["--t", repr(t), "--t1", repr(t1), "--eps-d", repr(eps_d)]
    out = assert_oracle_json_matches_dumps(flags, make_tdot(t, t1, eps_d), sites)
    assert shown in out if shown else out == ""


def band_edge_devices(count: int = 40) -> list[dict]:
    """Seeded devices of 1-5 sites whose levels sit at or near the band edges
    +-2t: onsite energies drawn from +-2t, 0 and random values, bonds that are
    absent (isolated sites), of zero amplitude or random, any contact."""
    rng = random.Random(29)
    devices = []
    for _ in range(count):
        n = rng.randint(1, 5)
        t = rng.choice((1.0, 1.0, rng.uniform(0.5, 2.0)))
        onsite = [rng.choice((2.0 * t, -2.0 * t, 0.0, rng.uniform(-2.5, 2.5) * t))
                  for _ in range(n)]
        bonds = [[i, j, rng.choice((0.0, rng.uniform(-2.0, 2.0) * t))]
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        devices.append({"n_sites": n, "onsite": onsite, "hoppings": bonds,
                        "contact": rng.randrange(n), "lead_t": t})
    return devices


def test_no_exception_escapes_the_cli_on_band_edge_devices(tmp_path):
    # every solving command either succeeds or fails with a typed error
    for d, model in enumerate(band_edge_devices()):
        cfg = tmp_path / f"device_{d}.json"
        cfg.write_text(json.dumps({"model": model}))
        runs = [["poles", "--method", method, "--format", fmt]
                for method in ("siegert", "feshbach", "both") for fmt in ("table", "csv", "json")]
        runs += [["oracle", "--sites", "50"],
                 ["transmission", "--kmin", "0.1", "--kmax", "3", "--steps", "7"]]
        runs += [["wavefunction", "--pole-index", str(i), "--xmax", "6"]
                 for i in range(2 * model["n_sites"])]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--config", str(cfg)])
            assert code in (0, 2, 3), (model, argv)


EXTREME_SCALES = ("1e-300", "1e-160", "1e-8", "1", "1e8", "1e154", "1e160", "1e300")


def test_extreme_energy_scales_give_poles_or_one_typed_error(tmp_path):
    # T-dots whose t and t1 run from 1e-300 to 1e300, and two uncoupled
    # sites at level 0 on a lead hopping of 1e-300 and 1e-310: every command
    # exits 0, 2 or 3, prints no nan and writes at most its one error line
    devices = [["--t", t, "--t1", t1, "--eps-d", eps_d] for t in EXTREME_SCALES
               for t1 in EXTREME_SCALES for eps_d in ("0.3", "-2", "1e150")]
    for lead_t in (1e-300, 1e-310):
        cfg = tmp_path / f"uncoupled_{lead_t!r}.json"
        cfg.write_text(json.dumps({"model": {"n_sites": 2, "onsite": [0.0, 0.0], "hoppings": [],
                                             "contact": 0, "lead_t": lead_t}}))
        devices.append(["--config", str(cfg)])
    codes = {}
    for device in devices:
        t1 = device[3] if device[0] == "--t" else "1"
        runs = [("poles", "--method", method) for method in ("siegert", "feshbach", "both")]
        runs += [("sweep", "--param", "t1", "--from", "0", "--to", t1, "--steps", "2"),
                 ("oracle", "--sites", "20"), ("wavefunction", "--pole-index", "0", "--xmax", "6")]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, *device])
            codes[argv, tuple(device)] = code
            assert code in (0, 2, 3), (argv, device)
            assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), (argv, device)
            lines = err.getvalue().splitlines()
            assert len(lines) == (code != 0), (argv, device, err.getvalue())
            assert all(line.startswith(("error: ", "numerical failure: ")) for line in lines)
    # where the outgoing-wave route solves a large-hopping T-dot, so do both routes
    for (argv, device), code in codes.items():
        if argv == ("poles", "--method", "siegert") and code == 0 and device[0] == "--t" \
                and float(device[1]) >= 1e154:
            assert codes[("poles", "--method", "both"), device] == 0, device
