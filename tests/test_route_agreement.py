"""Property tests: the outgoing-wave and Feshbach routes find the same poles.

Each drawn device must either give 2n poles from both routes, agreeing to
1e-9 * |z| (a bound that does not change under z -> 1/z), or make a route
raise a typed ParameterError or NumericalError.  The Feshbach route deflates
repeated levels exactly, so it may raise only where its certificate cannot
hold, at an exceptional point: a pole set with two poles within
1e-6 * max(1, |z|) of each other.  A ClassificationError is never
acceptable: it means a root landed where no pole of the model can sit.
Devices drawn the way the benchmark draws them must be solved by both
routes, with the same classes.  A level the contact does not see at (or
within a few doubles of) the band edge is a double root z = +-1 in both.
Scaling a device's energies and lead hopping by 2**e changes no z, k, class
or amplitude of either route by a bit, and scales every E by 2**e.
"""

import math

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from test_oracle import scaled_exactly

from respole import (
    ClassificationError,
    DeviceSpec,
    NumericalError,
    ParameterError,
    feshbach_pole_search,
    make_tdot,
    solve_poles,
)

ROUTE_TOL = 1e-9
CLUSTER = 1e-6

PROPERTY = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
)


def _route(solver, spec):
    try:
        return solver(spec)
    except ClassificationError as exc:
        pytest.fail(f"{solver.__name__} misclassified a root of {spec}: {exc}")
    except (ParameterError, NumericalError) as exc:
        event(f"{solver.__name__} raised {type(exc).__name__}")
        return None


def _closest_pair(poles) -> float:
    return min(
        abs(p.z - q.z) / max(1.0, abs(p.z))
        for i, p in enumerate(poles) for q in poles[i + 1:]
    )


def assert_routes_agree(spec: DeviceSpec) -> None:
    siegert = _route(solve_poles, spec)
    feshbach = _route(feshbach_pole_search, spec)
    if siegert is None:
        return
    if feshbach is None:
        # the Aberth certificate may refuse only a (near-)multiple root
        assert _closest_pair(siegert) <= CLUSTER, spec
        return
    assert len(siegert) == len(feshbach) == 2 * spec.n_sites
    for a, b in ((siegert, feshbach), (feshbach, siegert)):
        for p in a:
            dz = min(abs(p.z - q.z) for q in b)
            assert dz <= ROUTE_TOL * abs(p.z), (spec, p.z, dz)


def log_uniform(low: float, high: float):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@st.composite
def devices(draw, hopping_scale: float = 1.0) -> DeviceSpec:
    """A connected device of 1-10 sites: a random spanning tree plus random
    extra bonds, bond amplitudes of magnitude 0.1-1.5 times hopping_scale,
    and a random contact site."""
    n = draw(st.integers(1, 10))
    onsite = tuple(draw(st.lists(st.floats(-2.5, 2.5), min_size=n, max_size=n)))
    amplitude = st.builds(
        lambda mag, sign: sign * mag * hopping_scale,
        st.floats(0.1, 1.5),
        st.sampled_from((-1.0, 1.0)),
    )
    bonds = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 2:
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1))
        bonds |= {(i, j) for i, j in draw(st.lists(pairs, max_size=n)) if i < j}
    hoppings = tuple((i, j, draw(amplitude)) for i, j in sorted(bonds))
    return DeviceSpec(
        n_sites=n,
        onsite=onsite,
        hoppings=hoppings,
        contact=draw(st.integers(0, n - 1)),
        lead_t=1.0,
    )


def coalescence_point(z0: float) -> tuple[float, float]:
    """(eps_d, t1**2) at which the T-dot quartic (t = 1)
    z^4 + eps_d (z^3 - z) + t1^2 z^2 - 1 has a double root at real z0.

    The quartic and its derivative vanish together at z0; both are linear in
    eps_d and t1^2, which gives eps_d = -2 (z0^4 + 1) / (z0 (z0^2 + 1)).
    """
    eps_d = -2.0 * (z0**4 + 1.0) / (z0 * (z0 * z0 + 1.0))
    coupling_sq = (1.0 - z0**4 - eps_d * (z0**3 - z0)) / (z0 * z0)
    return eps_d, coupling_sq


@PROPERTY
@given(devices())
def test_random_devices(spec):
    assert_routes_agree(spec)


@PROPERTY
@given(st.sampled_from((-2.0, 2.0)), log_uniform(1e-6, 1e-3))
def test_near_threshold_tdots(eps_d, t1):
    assert_routes_agree(make_tdot(1.0, t1, eps_d))


@PROPERTY
@given(
    st.floats(1.05, 2.5),
    st.sampled_from((-1.0, 1.0)),
    log_uniform(1e-8, 1e-2),
    st.sampled_from((-1.0, 1.0)),
)
def test_near_coalescing_poles(z0, side, detuning, direction):
    z0 *= side
    eps_d, coupling_sq = coalescence_point(z0)
    assert coupling_sq > 0
    spec = make_tdot(1.0, math.sqrt(coupling_sq * (1.0 + direction * detuning)), eps_d)
    # the drawn point really sits next to a double root at z0
    roots = sorted(solve_poles(spec), key=lambda p: abs(p.z - z0))
    assert abs(roots[1].z - z0) < 10.0 * math.sqrt(detuning) * abs(z0)
    assert_routes_agree(spec)


@PROPERTY
@given(st.sampled_from((1e-4, 10.0)), st.floats(-3.0, 3.0))
def test_tiny_and_large_tdot_couplings(t1, eps_d):
    assert_routes_agree(make_tdot(1.0, t1, eps_d))


@PROPERTY
@given(st.sampled_from((1e-4, 10.0)).flatmap(devices))
def test_tiny_and_large_device_couplings(spec):
    assert_routes_agree(spec)


@st.composite
def workload_devices(draw) -> DeviceSpec:
    """A device of 1-8 sites built the way the benchmark's ``random_device``
    builds one: a random spanning tree over a shuffled site order, each other
    pair bonded with probability 1/4, bond magnitudes 0.3-1.5 of either sign,
    onsite levels in [-2, 2], a random contact and t = 1."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    bonds = set()
    for pos in range(1, n):
        i, j = order[pos], order[draw(st.integers(0, pos - 1))]
        bonds.add((min(i, j), max(i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in bonds and draw(st.integers(0, 3)) == 0:
                bonds.add((i, j))
    amplitude = st.builds(lambda mag, sign: sign * mag, st.floats(0.3, 1.5),
                          st.sampled_from((-1.0, 1.0)))
    return DeviceSpec(
        n_sites=n,
        onsite=tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))),
        hoppings=tuple((i, j, draw(amplitude)) for i, j in sorted(bonds)),
        contact=draw(st.integers(0, n - 1)),
        lead_t=1.0,
    )


@PROPERTY
@given(workload_devices())
def test_workload_devices_agree_with_the_same_classes(spec):
    siegert, feshbach = solve_poles(spec), feshbach_pole_search(spec)
    assert len(siegert) == len(feshbach) == 2 * spec.n_sites
    for a, b in ((siegert, feshbach), (feshbach, siegert)):
        for p in a:
            dz = min(abs(p.z - q.z) for q in b)
            assert dz <= ROUTE_TOL * abs(p.z), (spec, p.z, dz)
    assert (sorted(p.pole_class.value for p in siegert)
            == sorted(p.pole_class.value for p in feshbach)), spec


def band_edge_star(t, leaves, edge, ulps, hopping, contact_level):
    """A contact site with ``leaves`` identical side sites at a level
    ``ulps`` doubles away from the band edge -2t * edge: the contact does
    not see leaves - 1 of the levels, each a double root at z = edge (or a
    pair about sqrt(eps) apart)."""
    level = -2.0 * t * edge
    for _ in range(abs(ulps)):
        level = math.nextafter(level, math.copysign(math.inf, ulps))
    return DeviceSpec(
        n_sites=1 + leaves,
        onsite=(contact_level,) + (level,) * leaves,
        hoppings=tuple((0, j, hopping) for j in range(1, leaves + 1)),
        contact=0,
        lead_t=t,
    )


@pytest.mark.parametrize("leaves", [2, 3, 4])
@pytest.mark.parametrize("edge", [-1.0, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 1.3])
def test_levels_hidden_at_the_band_edge(t, edge, leaves):
    # both routes give every hidden level's pair as the exact double root
    # z = edge, with the same classes, and agree on the other poles
    for ulps in range(-6, 7):
        for hopping in (-1.0, 0.7):
            for contact_level in (0.0, 0.3):
                spec = band_edge_star(t, leaves, edge, ulps, hopping, contact_level)
                siegert, feshbach = solve_poles(spec), feshbach_pole_search(spec)
                for poles in (siegert, feshbach):
                    assert sum(p.z == edge for p in poles) == 2 * (leaves - 1), spec
                for a, b in ((siegert, feshbach), (feshbach, siegert)):
                    for p in a:
                        dz = min(abs(p.z - q.z) for q in b)
                        assert dz <= ROUTE_TOL * abs(p.z), (spec, p.z, dz)
                assert (sorted(p.pole_class.value for p in siegert)
                        == sorted(p.pole_class.value for p in feshbach)), spec


def scaled_device(spec: DeviceSpec, e: int) -> DeviceSpec | None:
    """``spec`` with every onsite energy, bond and the lead hopping times
    2**e, or None where one of them does not scale exactly."""
    onsite = [scaled_exactly(x, e) for x in spec.onsite]
    bonds = [(i, j, scaled_exactly(a, e)) for i, j, a in spec.hoppings]
    lead = scaled_exactly(spec.lead_t, e)
    if None in (lead, *onsite, *(a for _, _, a in bonds)):
        return None
    return DeviceSpec(spec.n_sites, tuple(onsite), tuple(bonds), spec.contact, lead)


def _outcome(solver, spec):
    try:
        return solver(spec)
    except (ParameterError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


decoupled_tdots = st.builds(lambda t, eps_d: make_tdot(t, 0.0, eps_d),
                            log_uniform(0.1, 10.0), st.floats(-3.0, 3.0))


@PROPERTY
@given(st.one_of(devices(), decoupled_tdots), st.integers(-1000, 1000))
def test_routes_are_invariant_under_power_of_two_scaling(spec, e):
    scaled = scaled_device(spec, e)
    assume(scaled is not None)
    for solver in (solve_poles, feshbach_pole_search):
        poles, moved = _outcome(solver, spec), _outcome(solver, scaled)
        if isinstance(poles, str):
            assert moved == poles, (solver.__name__, spec, e)
            continue
        assert len(moved) == len(poles), (solver.__name__, spec, e)
        for p, q in zip(poles, moved):
            assert repr((p.z, p.k, p.pole_class, p.amps)) == repr((q.z, q.k, q.pole_class, q.amps))
            # E = -t (z + 1/z) scales with t, unless a part falls into the
            # subnormal range and loses a bit there
            for part, moved_part in ((p.E.real, q.E.real), (p.E.imag, q.E.imag)):
                exact = scaled_exactly(part, e)
                if exact is not None:
                    assert repr(moved_part) == repr(exact), (solver.__name__, spec, e, p.E, q.E)
