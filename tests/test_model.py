import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from respole import (
    DeviceSpec,
    ParameterError,
    device_from_json,
    make_tdot,
    p_space_hamiltonian,
    tdot_params,
)


def test_make_tdot_field_mapping():
    spec = make_tdot(1.0, 1.0, 0.0)
    assert spec.n_sites == 2
    assert spec.onsite == (0.0, 0.0)
    assert spec.hoppings == ((0, 1, -1.0),)
    assert spec.contact == 0
    assert spec.lead_t == 1.0


def test_make_tdot_nontrivial_values():
    spec = make_tdot(1.0, 0.5, 0.3)
    assert spec.onsite[1] == 0.3
    assert spec.hoppings[0][2] == -0.5


def test_make_tdot_rejects_nonpositive_t():
    # t <= 0 or any non-finite input; the message names the field and value
    for t, t1, eps_d, message in [
        (0.0, 1.0, 0.0, "lead hopping t must be finite and > 0, got 0.0"),
        (-1.0, 1.0, 0.0, "lead hopping t must be finite and > 0, got -1.0"),
        (math.inf, 1.0, 0.0, "lead hopping t must be finite and > 0, got inf"),
        (math.nan, 1.0, 0.0, "lead hopping t must be finite and > 0, got nan"),
        (1.0, math.nan, 0.0, "hopping amplitude on (0, 1) must be finite, got nan"),
        (1.0, math.inf, 0.0, "hopping amplitude on (0, 1) must be finite, got -inf"),
        (1.0, 1.0, math.inf, "onsite energy of site 1 must be finite, got inf"),
        (1.0, 1.0, -math.inf, "onsite energy of site 1 must be finite, got -inf"),
        (1.0, 1.0, math.nan, "onsite energy of site 1 must be finite, got nan"),
    ]:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            make_tdot(t, t1, eps_d)


def test_tdot_roundtrip_bit_exact():
    for t, t1, ed in [(1.0, 1.0, 0.0), (2.0, 0.3, -1.7), (0.5, -0.25, 3.25)]:
        assert tdot_params(make_tdot(t, t1, ed)) == (t, t1, ed)


def test_tdot_params_rejects_other_shapes():
    gen = DeviceSpec(3, (0.0, 0.1, 0.2), ((0, 1, -1.0),), 0, 1.0)
    assert tdot_params(gen) is None


def test_p_space_hamiltonian_tdot():
    h = p_space_hamiltonian(make_tdot(1.0, 1.0, 0.0))
    assert np.array_equal(h, [[0.0, -1.0], [-1.0, 0.0]])
    h = p_space_hamiltonian(make_tdot(1.0, 1.0, 0.3))
    assert np.array_equal(h, [[0.0, -1.0], [-1.0, 0.3]])


def test_p_space_hamiltonian_single_site():
    spec = DeviceSpec(1, (0.5,), (), 0, 1.0)
    assert np.array_equal(p_space_hamiltonian(spec), [[0.5]])


def test_p_space_hamiltonian_exactly_symmetric():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        chosen = pairs[: int(rng.integers(1, len(pairs) + 1))]
        spec = DeviceSpec(
            n_sites=n,
            onsite=tuple(rng.normal(size=n)),
            hoppings=tuple((i, j, float(rng.normal())) for i, j in chosen),
            contact=int(rng.integers(0, n)),
            lead_t=float(rng.uniform(0.1, 3.0)),
        )
        h = p_space_hamiltonian(spec)
        assert np.array_equal(h, h.T)


def test_device_validation():
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0,), (), 0, 1.0)  # onsite length mismatch
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0, 0.0), (), 5, 1.0)  # contact out of range
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0, 0.0), ((0, 0, 1.0),), 0, 1.0)  # self-loop
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0, 0.0), ((0, 1, 1.0), (1, 0, 2.0)), 0, 1.0)  # dup pair
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0, 0.0), (), 0, 0.0)  # lead hopping zero
    with pytest.raises(ParameterError):
        DeviceSpec(2, (0.0, float("nan")), (), 0, 1.0)
    with pytest.raises(ParameterError, match="^device needs at least one site$"):
        DeviceSpec(0, (), (), 0, 1.0)


GOOD_FIELDS = dict(n_sites=2, onsite=(0.0, 0.5), hoppings=((0, 1, -0.8),), contact=0, lead_t=1.0)


@pytest.mark.parametrize("field, value, message", [
    ("n_sites", 2.0, "n_sites must be an integer, got 2.0"),
    ("n_sites", True, "n_sites must be an integer, got True"),
    ("n_sites", "2", "n_sites must be an integer, got '2'"),
    ("contact", 0.0, "contact index must be an integer, got 0.0"),
    ("contact", True, "contact index must be an integer, got True"),
    ("contact", np.bool_(False), "contact index must be an integer, got np.False_"),
    ("hoppings", ((0.0, 1, -0.8),), "hopping index must be an integer, got 0.0"),
    ("hoppings", ((0, True, -0.8),), "hopping index must be an integer, got True"),
    ("hoppings", ((0, 1, True),), "hopping amplitude on (0, 1) must be a real number, got True"),
    ("hoppings", ((0, 1, "-0.8"),),
     "hopping amplitude on (0, 1) must be a real number, got '-0.8'"),
    ("hoppings", ((0, 1, -0.8j),),
     "hopping amplitude on (0, 1) must be a real number, got (-0-0.8j)"),
    ("onsite", ("1", 0.5), "onsite energy of site 0 must be a real number, got '1'"),
    ("onsite", (0.0, False), "onsite energy of site 1 must be a real number, got False"),
    ("onsite", (0.0, 1j), "onsite energy of site 1 must be a real number, got 1j"),
    ("lead_t", True, "lead hopping t must be a real number, got True"),
    ("lead_t", "1.0", "lead hopping t must be a real number, got '1.0'"),
    ("lead_t", 1 + 0j, "lead hopping t must be a real number, got (1+0j)"),
])
def test_device_rejects_fields_of_the_wrong_type(field, value, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        DeviceSpec(**{**GOOD_FIELDS, field: value})


@pytest.mark.parametrize("field, value, message", [
    ("onsite", (0.0, 10**400), "onsite energy of site 1 is too large for a float"),
    ("hoppings", ((0, 1, -10**400),), "hopping amplitude on (0, 1) is too large for a float"),
    ("lead_t", 10**400, "lead hopping t is too large for a float"),
], ids=["onsite", "hopping", "lead_t"])
def test_device_refuses_integers_too_large_for_a_float(field, value, message):
    # a typed error, as the JSON path gives, not math.isfinite's OverflowError
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        DeviceSpec(**{**GOOD_FIELDS, field: value})


def test_device_accepts_numpy_integers_and_reals():
    spec = DeviceSpec(
        n_sites=np.int64(2), onsite=(np.float32(0.0), np.float64(0.5)),
        hoppings=((np.int32(0), np.int64(1), np.float64(-0.8)),),
        contact=np.int8(0), lead_t=np.float64(1.0),
    )
    assert np.array_equal(p_space_hamiltonian(spec), p_space_hamiltonian(DeviceSpec(**GOOD_FIELDS)))


def test_t1_zero_is_accepted():
    spec = make_tdot(1.0, 0.0, 0.5)
    assert tdot_params(spec) == (1.0, 0.0, 0.5)


def test_json_roundtrip():
    spec = DeviceSpec(3, (0.0, 0.5, -0.2), ((0, 1, -0.8), (1, 2, -0.6)), 0, 1.0)
    assert device_from_json(asdict(spec)) == spec


def test_json_tdot_shorthand():
    spec = device_from_json({"tdot": {"t": 1.0, "t1": 0.5, "eps_d": 0.3}})
    assert spec == make_tdot(1.0, 0.5, 0.3)


def test_json_rejects_garbage():
    with pytest.raises(ParameterError):
        device_from_json({"tdot": {"t": 1.0}})
    with pytest.raises(ParameterError):
        device_from_json({"n_sites": 2})
    with pytest.raises(ParameterError):
        device_from_json([1, 2, 3])


@pytest.mark.parametrize("tdot", [[1.0, 0.5, 0.3], "1 0.5 0.3", 0.5, None],
                         ids=["list", "string", "number", "null"])
def test_tdot_shorthand_that_is_not_an_object_says_what_it_needs(tdot):
    # not Python's own "list indices must be integers" text
    message = "tdot shorthand must be an object with t, t1 and eps_d"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        device_from_json({"tdot": tdot})


def _numpy_spec():
    return DeviceSpec(
        n_sites=np.int64(2), onsite=(np.float32(0.0), np.float64(0.5)),
        hoppings=((np.int32(0), np.int64(1), np.float64(-0.8)),),
        contact=np.int8(0), lead_t=np.float64(1.0),
    )


def _list_spec():
    return DeviceSpec(n_sites=2, onsite=[0, 0.5], hoppings=[[0, 1, -0.8]], contact=0, lead_t=1)


@pytest.mark.parametrize("build, message", [
    (lambda: make_tdot(1.0, True, 0.0),
     "hopping amplitude on (0, 1) must be a real number, got True"),
    (lambda: make_tdot(1.0, "0.5", 0.0),
     "hopping amplitude on (0, 1) must be a real number, got '0.5'"),
    (lambda: DeviceSpec(2, (0.0, 0.0), ((0, 1),), 0, 1.0),
     "hopping (0, 1) is not (i, j, amplitude)"),
    (lambda: DeviceSpec(**{**GOOD_FIELDS, "hoppings": (5,)}), "hopping 5 is not (i, j, amplitude)"),
    (lambda: DeviceSpec(**{**GOOD_FIELDS, "onsite": 5.0}), "onsite must be a sequence, got 5.0"),
    (lambda: DeviceSpec(**{**GOOD_FIELDS, "hoppings": 5}), "hoppings must be a sequence, got 5"),
], ids=["tdot_t1_bool", "tdot_t1_string", "two_element_hopping", "scalar_hopping",
        "scalar_onsite", "scalar_hoppings"])
def test_malformed_device_is_a_parameter_error(build, message):
    # make_tdot checks t1 before negating it, and a malformed container or
    # hopping is a typed error, not Python's own TypeError or ValueError
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build", [_list_spec, _numpy_spec], ids=["lists", "numpy_scalars"])
def test_device_stores_python_ints_floats_and_tuples(build):
    spec = build()
    reference = DeviceSpec(**GOOD_FIELDS)
    assert spec == reference and hash(spec) == hash(reference)
    assert type(spec.n_sites) is int and type(spec.contact) is int
    assert type(spec.lead_t) is float and type(spec.onsite) is tuple
    assert all(type(e) is float for e in spec.onsite)
    assert type(spec.hoppings) is tuple
    assert [tuple(map(type, bond)) for bond in spec.hoppings] == [(int, int, float)]
    # README: json.dumps({"model": dataclasses.asdict(spec)}) writes the device
    assert json.dumps({"model": asdict(spec)}) == json.dumps({"model": asdict(reference)})


@pytest.mark.parametrize("build", [_list_spec, _numpy_spec], ids=["lists", "numpy_scalars"])
def test_json_roundtrip_of_any_built_device(build):
    spec = build()
    assert device_from_json(json.loads(json.dumps(asdict(spec)))) == spec


@pytest.mark.parametrize("model, message", [
    ({"tdot": {"t": 1, "t1": True, "eps_d": 0}},
     "hopping amplitude on (0, 1) must be a real number, got True"),
    ({"tdot": {"t": "1", "t1": 0.5, "eps_d": 0}}, "lead hopping t must be a real number, got '1'"),
    ({**asdict(DeviceSpec(**GOOD_FIELDS)), "contact": 0.5},
     "contact index must be an integer, got 0.5"),
    ({**asdict(DeviceSpec(**GOOD_FIELDS)), "hoppings": [[0, 1]]},
     "hopping [0, 1] is not (i, j, amplitude)"),
    ({**asdict(DeviceSpec(**GOOD_FIELDS)), "onsite": 0.5}, "onsite must be a sequence, got 0.5"),
    ({**asdict(DeviceSpec(**GOOD_FIELDS)), "lead_t": 10**400},
     "lead hopping t is too large for a float"),
], ids=["tdot_bool", "tdot_string", "fractional_index", "two_element_hopping", "scalar_onsite",
        "int_beyond_float"])
def test_json_device_is_checked_by_the_device(model, message):
    # the JSON form has no checks of its own: DeviceSpec's message names the field
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        device_from_json(model)

