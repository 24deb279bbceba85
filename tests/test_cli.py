import json
import math
import warnings

import pytest

from respole import make_tdot, pole_to_record, solve_poles
from respole._format import format_float
from respole.cli import main
from respole.errors import NumericalError

POLE_HEADER = "z_re,z_im,k_re,k_im,E_re,E_im,class,amp0_re,amp0_im,ampd_re,ampd_im"


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
    assert "t1 or eps-d" in err


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
], ids=["sites", "kmin", "t1", "tdot_t", "steps_fraction", "sites_fraction", "t1_bool",
        "tdot_t1_bool", "device_fraction_and_bool", "n_sites_fraction", "contact_bool",
        "hopping_index_fraction", "onsite_bool"])
def test_config_value_of_wrong_type_exits_2(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


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
