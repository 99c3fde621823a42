"""Phenomenological decoherence channels on the two-qubit polarization state.

Two one-parameter families are modeled: polarization-delay dephasing
(parameter eta, erasing coherences between different second-qubit
polarizations) and photon-distinguishability mixing (parameter v, the
weight of the singlet component).
"""

from __future__ import annotations

import numpy as np

from .circuit import singlet
from .qmath import DensityMatrix, I2, OutOfRange, SIGMA_Z, check_unit  # noqa: F401

# Read-only two-qubit matrices the state families are built from.
SINGLET = singlet().density().matrix
RHO_MIX = np.diag([0, 0.5, 0.5, 0]).astype(complex)
# (|HV> + |HH>)/sqrt(2) and (|VH> + |HH>)/sqrt(2)
_H_PLUS, _PLUS_H = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=complex) / np.sqrt(2)
RHO_DIST = (np.outer(_H_PLUS, _H_PLUS.conj()) + np.outer(_PLUS_H, _PLUS_H.conj())) / 2
_Z2 = np.kron(I2, SIGMA_Z)
for _m in (SINGLET, RHO_MIX, RHO_DIST, _Z2):
    _m.setflags(write=False)


def rho_mix() -> DensityMatrix:
    """Fully dephased singlet: (|HV><HV| + |VH><VH|)/2."""
    return DensityMatrix((2, 2), RHO_MIX.copy())


def rho_dist() -> DensityMatrix:
    """Fully distinguishable-photon state: (|H+><H+| + |+H><+H|)/2."""
    return DensityMatrix((2, 2), RHO_DIST.copy())


def _dephased(m: np.ndarray, eta: float) -> np.ndarray:
    """(1 - eta) m + eta D(m), D the phase flip on the second qubit: coherences
    between H and V of the delayed photon scale by (1 - eta)."""
    return (1 - eta) * m + eta * (0.5 * (m + _Z2 @ m @ _Z2))


def dephased_singlet(eta: float) -> DensityMatrix:
    """(1 - eta)|S><S| + eta rho_mix."""
    return DensityMatrix((2, 2), _dephased(SINGLET, check_unit(eta, "eta")))


def distinguishable_state(v: float) -> DensityMatrix:
    """v |S><S| + (1 - v) rho_dist."""
    v = check_unit(v, "v")
    return DensityMatrix((2, 2), v * SINGLET + (1 - v) * RHO_DIST)


def baseline_state(eta: float, weight: float = 0.86) -> DensityMatrix:
    """Experimental-baseline model: dephased mixture of singlet and rho_mix.

    The default weight 0.86 reproduces the measured witness value of the
    undecohered setup (W = 1 - 2 * weight = -0.72).
    """
    weight = check_unit(weight, "weight")
    m = weight * SINGLET + (1 - weight) * RHO_MIX
    return DensityMatrix((2, 2), _dephased(m, check_unit(eta, "eta")))


def baseline_witness_zero_crossing(weight: float = 0.86) -> float | None:
    """Dephasing eta at which the baseline witness W(eta) = 1 - 2 w (1 - eta) is zero.

    The crossing eta* = 1 - 1/(2w) exists only for w >= 1/2; below that the
    witness never goes negative and there is no crossing (None).
    """
    weight = check_unit(weight, "weight")
    if weight < 0.5:
        return None
    return 1.0 - 1.0 / (2.0 * weight)
