"""Phenomenological decoherence channels on the two-qubit polarization state.

Two one-parameter families are modeled: polarization-delay dephasing
(parameter eta, erasing coherences between different second-qubit
polarizations) and photon-distinguishability mixing (parameter v, the
weight of the singlet component).  Each family maps an array of parameters,
or one number, to the (..., 4, 4) stack of its states, range-checked once: convex
mixes of fixed density matrices and their dephased images (m + Z m Z)/2, so density
matrices by construction.
"""

from __future__ import annotations

import numpy as np

from .circuit import singlet
from .qmath import DensityMatrix, I2, SIGMA_Z, check_unit

# Read-only two-qubit matrices the state families are built from.
_SINGLET_KET = singlet().amplitudes
SINGLET = np.outer(_SINGLET_KET, _SINGLET_KET.conj())
RHO_MIX = np.diag([0, 0.5, 0.5, 0]).astype(complex)
# (|HV> + |HH>)/sqrt(2) and (|VH> + |HH>)/sqrt(2)
_H_PLUS, _PLUS_H = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=complex) / np.sqrt(2)
RHO_DIST = (np.outer(_H_PLUS, _H_PLUS.conj()) + np.outer(_PLUS_H, _PLUS_H.conj())) / 2
_Z2 = np.kron(I2, SIGMA_Z)
for _m in (SINGLET, RHO_MIX, RHO_DIST, _Z2):
    _m.setflags(write=False)
BASELINE_WEIGHT = 0.86  # the baseline's singlet weight: the measured W = 1 - 2 * 0.86 = -0.72


# Kept for benchmarks/test_benchmark.py, which checks its reference states against it.
def rho_dist() -> DensityMatrix:
    """Fully distinguishable-photon state: (|H+><H+| + |+H><+H|)/2."""
    return DensityMatrix(RHO_DIST.copy())


def _unit(x, name: str) -> np.ndarray:
    """The range-checked parameters ``x`` with two unit axes appended, to scale 4x4 matrices."""
    return np.asarray(check_unit(x, name))[..., None, None]


def _dephased(m: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(1 - eta) m + eta D(m), D the phase flip on the second qubit: coherences
    between H and V of the delayed photon scale by (1 - eta)."""
    return (1 - eta) * m + eta * (0.5 * (m + _Z2 @ m @ _Z2))


def dephased_singlets(eta) -> np.ndarray:
    """(1 - eta)|S><S| + eta RHO_MIX."""
    return _dephased(SINGLET, _unit(eta, "eta"))


def distinguishable_states(v) -> np.ndarray:
    """v |S><S| + (1 - v) RHO_DIST."""
    v = _unit(v, "v")
    return v * SINGLET + (1 - v) * RHO_DIST


def baseline_states(eta, weight: float = BASELINE_WEIGHT) -> np.ndarray:
    """Experimental-baseline model: dephased mixture of singlet and RHO_MIX."""
    weight = check_unit(weight, "weight")
    m = weight * SINGLET + (1 - weight) * RHO_MIX
    return _dephased(m, _unit(eta, "eta"))


# Kept for benchmarks/test_benchmark.py, which checks its reference states against it.
def baseline_state(eta: float, weight: float = BASELINE_WEIGHT) -> DensityMatrix:
    return DensityMatrix(baseline_states(eta, weight))


def baseline_witness_zero_crossing(weight: float = BASELINE_WEIGHT) -> float | None:
    """Dephasing eta at which the baseline witness W(eta) = 1 - 2 w (1 - eta) is zero.

    The crossing eta* = 1 - 1/(2w) exists only for w >= 1/2; below that the
    witness never goes negative and there is no crossing (None).
    """
    weight = check_unit(weight, "weight")
    if weight < 0.5:
        return None
    return 1.0 - 1.0 / (2.0 * weight)
