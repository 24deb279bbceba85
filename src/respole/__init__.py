"""respole: S-matrix poles and scattering observables of 1D tight-binding
open quantum systems, by two independent routes (outgoing-wave polynomial and
effective-Hamiltonian Aberth iteration) that must agree."""

__version__ = "0.1.0"

from .dispersion import (
    energy_from_z,
    group_velocity,
    k_from_z,
    z_pair_from_energy,
)
from .errors import BandEdgeError, ClassificationError, NumericalError, ParameterError
from .feshbach import (
    feshbach_pole_search,
    q_space_reconstruct,
    secular_residual,
    self_energy,
)
from .model import (
    DeviceSpec,
    device_from_json,
    make_tdot,
    p_space_hamiltonian,
    tdot_params,
)
from .oracle import (
    bound_energies_from_truncation,
    build_report,
    pole_residual_report,
    pole_set_distance,
)
from .poles import PoleClass, SpectralPole
from .scattering import (
    ScatteringSweep,
    transmission_sweep,
    verify_green_identity,
)
from .siegert import ClosedFormEps0, closed_form_eps0, solve_poles
from .wavefunction import (
    WavefunctionSample,
    evaluate,
    normalize_bound,
)

__all__ = [
    "BandEdgeError",
    "ClassificationError",
    "ClosedFormEps0",
    "DeviceSpec",
    "NumericalError",
    "ParameterError",
    "PoleClass",
    "ScatteringSweep",
    "SpectralPole",
    "WavefunctionSample",
    "bound_energies_from_truncation",
    "build_report",
    "closed_form_eps0",
    "device_from_json",
    "energy_from_z",
    "evaluate",
    "feshbach_pole_search",
    "group_velocity",
    "k_from_z",
    "make_tdot",
    "normalize_bound",
    "p_space_hamiltonian",
    "pole_residual_report",
    "pole_set_distance",
    "q_space_reconstruct",
    "secular_residual",
    "self_energy",
    "solve_poles",
    "tdot_params",
    "transmission_sweep",
    "verify_green_identity",
    "z_pair_from_energy",
]
