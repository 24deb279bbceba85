import math

import numpy as np
import pytest

from respole import (
    DeviceSpec,
    ParameterError,
    PoleClass,
    SpectralPole,
    evaluate,
    make_tdot,
    normalize_bound,
    solve_poles,
)
from respole._format import format_float
from respole.wavefunction import WAVEFUNCTION_HEADER, WavefunctionSample, wavefunction_csv

P = math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)
Q = 1.0 / P


def poles_by_class(t=1.0, t1=1.0, ed=0.0):
    return {p.pole_class: p for p in solve_poles(make_tdot(t, t1, ed))}


def test_evaluate_magnitudes():
    ps = poles_by_class()
    bound = ps[PoleClass.BOUND_LOWER]
    res = ps[PoleClass.RESONANT]
    samples = {s.x: s for s in evaluate(bound, 5)}
    assert samples[5].magnitude == pytest.approx(Q**5, abs=1e-10)
    assert samples[5].magnitude == pytest.approx(0.3002831, abs=1e-7)
    assert samples[0].value == bound.amp0
    assert samples["d"].value == bound.amp_d
    samples = {s.x: s for s in evaluate(res, 5)}
    assert samples[5].magnitude == pytest.approx(P**5, abs=1e-9)
    assert samples[5].magnitude == pytest.approx(3.3301907, abs=1e-7)


def test_evaluate_row_count_and_order():
    ps = poles_by_class()
    samples = evaluate(ps[PoleClass.BOUND_UPPER], 20)
    assert len(samples) == 42
    assert [s.x for s in samples[:41]] == list(range(-20, 21))
    assert samples[-1].x == "d"


def test_evaluate_requires_positive_window():
    ps = poles_by_class()
    with pytest.raises(ParameterError):
        evaluate(ps[PoleClass.BOUND_LOWER], 0)


@pytest.mark.parametrize("x_max", [1.5, 2.0, True, "2", None])
def test_evaluate_rejects_non_integer_window(x_max):
    pole = poles_by_class()[PoleClass.BOUND_LOWER]
    with pytest.raises(ParameterError, match="^x_max must be an integer, got "):
        evaluate(pole, x_max)


def test_evaluate_accepts_numpy_integer_window():
    pole = poles_by_class()[PoleClass.RESONANT]
    got = evaluate(pole, np.int64(3))
    assert got == evaluate(pole, 3)
    assert [type(s.x) for s in got[:7]] == [int] * 7


def test_geometric_ratio_constant():
    ps = poles_by_class()
    for cls, expect in [
        (PoleClass.BOUND_LOWER, Q),
        (PoleClass.BOUND_UPPER, Q),
        (PoleClass.RESONANT, P),
        (PoleClass.ANTI_RESONANT, P),
    ]:
        samples = {s.x: s for s in evaluate(ps[cls], 21)}
        for x in range(1, 21):
            ratio = samples[x + 1].magnitude / samples[x].magnitude
            assert abs(ratio - expect) < 1e-12


def test_normalize_bound_matches_direct_sum():
    ps = poles_by_class()
    bound = ps[PoleClass.BOUND_LOWER]
    # oracle first: truncated lattice sum of |psi|^2 out to |x| = 200
    raw_sq = abs(bound.amp_d) ** 2 + abs(bound.amp0) ** 2 * (
        1.0 + 2.0 * sum(abs(bound.z) ** (2 * x) for x in range(1, 201))
    )
    norm = normalize_bound(bound)
    scale = bound.amp0 / norm.amp0
    assert abs(scale - math.sqrt(raw_sq)) < 1e-12
    assert abs(scale - 2.1147425) < 1e-7
    total = abs(norm.amp_d) ** 2 + abs(norm.amp0) ** 2 * (
        1.0 + 2.0 * sum(abs(norm.z) ** (2 * x) for x in range(1, 201))
    )
    assert abs(total - 1.0) < 1e-12


def test_normalize_bound_weak_binding_exact():
    # |z| > 0.99: the closed-form geometric sum stays exact; compare against
    # a much deeper truncated sum
    ps = poles_by_class(t1=0.1)
    bound = ps[PoleClass.BOUND_LOWER]
    assert abs(bound.z) > 0.99
    norm = normalize_bound(bound)
    tail = sum(abs(norm.z) ** (2 * x) for x in range(1, 20001))
    total = abs(norm.amp_d) ** 2 + abs(norm.amp0) ** 2 * (1.0 + 2.0 * tail)
    assert abs(total - 1.0) < 1e-10


def test_normalize_bound_rejects_non_bound():
    ps = poles_by_class()
    for cls in (PoleClass.RESONANT, PoleClass.ANTI_RESONANT):
        with pytest.raises(ParameterError):
            normalize_bound(ps[cls])


def test_decay_rates():
    ps = poles_by_class()
    # the decay rate of a state is Im k: positive for bound states
    assert ps[PoleClass.BOUND_LOWER].k.imag == pytest.approx(math.log(P), abs=1e-10)
    assert ps[PoleClass.BOUND_LOWER].k.imag == pytest.approx(0.2406059, abs=1e-7)
    assert ps[PoleClass.RESONANT].k.imag == pytest.approx(-0.2406059, abs=1e-7)
    threshold = SpectralPole(
        z=1.0 + 0j, k=0j, E=-2.0 + 0j, pole_class=PoleClass.THRESHOLD,
        amps=(1.0 + 0j, 0j),
    )
    assert threshold.k.imag == 0.0


def test_wavefunction_csv_format():
    ps = poles_by_class()
    text = wavefunction_csv(evaluate(ps[PoleClass.BOUND_LOWER], 3))
    lines = text.strip().split("\n")
    assert lines[0] == WAVEFUNCTION_HEADER
    assert len(lines) == 9
    assert lines[-1].startswith("d,")


def reference_wavefunction_csv(samples):
    """One f-string of three format_float fields per sample."""
    lines = [WAVEFUNCTION_HEADER]
    for s in samples:
        lines.append(
            f"{s.x},{format_float(s.value.real)},{format_float(s.value.imag)},"
            f"{format_float(s.magnitude)}"
        )
    return "\n".join(lines) + "\n"


def test_wavefunction_csv_matches_format_float_rows():
    chain = DeviceSpec(
        n_sites=4, onsite=(0.3, -0.5, 1.1, 0.0),
        hoppings=((0, 1, -0.7), (1, 2, 0.4), (2, 3, -1.2)), contact=1, lead_t=1.0,
    )
    poles = solve_poles(make_tdot(1.0, 0.6, 0.2)) + solve_poles(chain)
    poles += solve_poles(make_tdot(1.0, 0.0, 0.5)) + solve_poles(make_tdot(1.0, -0.0, 0.0))
    batches = [evaluate(p, x_max) for p in poles for x_max in (1, 4)]
    labels = {s.x for b in batches for s in b if isinstance(s.x, str)}
    assert {"d", "p0", "p2", "p3"} <= labels
    signed = [complex(a, b) for a in (0.0, -0.0, -1.5) for b in (0.0, -0.0, 2.5e-300)]
    batches.append([WavefunctionSample(x, v, abs(v)) for x, v in zip((-3, -1, 0, "d", "p7"),
                                                                        signed)])
    batches.append([WavefunctionSample(-2, complex(-0.0, -0.0), -0.0)])
    for samples in batches:
        assert wavefunction_csv(samples) == reference_wavefunction_csv(samples)
