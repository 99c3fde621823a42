"""Phenomenological decoherence channels on the two-qubit polarization state.

Two one-parameter families are modeled: polarization-delay dephasing
(parameter eta, erasing coherences between different second-qubit
polarizations) and photon-distinguishability mixing (parameter v, the
weight of the singlet component).
"""

from __future__ import annotations

import numpy as np

from .circuit import singlet
from .qmath import DensityMatrix, DimensionMismatch, I2, SIGMA_Z, kron


class OutOfRange(Exception):
    pass


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"{name} = {x!r} outside [0, 1]")
    return x


# Read-only two-qubit matrices the state families are built from.
SINGLET = singlet().density().matrix
RHO_MIX = np.diag([0, 0.5, 0.5, 0]).astype(complex)
# (|HV> + |HH>)/sqrt(2) and (|VH> + |HH>)/sqrt(2)
_H_PLUS, _PLUS_H = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=complex) / np.sqrt(2)
RHO_DIST = (np.outer(_H_PLUS, _H_PLUS.conj()) + np.outer(_PLUS_H, _PLUS_H.conj())) / 2
_Z2 = kron(I2, SIGMA_Z)
for _m in (SINGLET, RHO_MIX, RHO_DIST, _Z2):
    _m.setflags(write=False)


def rho_mix() -> DensityMatrix:
    """Fully dephased singlet: (|HV><HV| + |VH><VH|)/2."""
    return DensityMatrix((2, 2), RHO_MIX.copy())


def rho_dist() -> DensityMatrix:
    """Fully distinguishable-photon state: (|H+><H+| + |+H><+H|)/2."""
    return DensityMatrix((2, 2), RHO_DIST.copy())


def _dephased(m: np.ndarray, eta: float) -> np.ndarray:
    return (1 - eta) * m + eta * (0.5 * (m + _Z2 @ m @ _Z2))


def dephase(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """(1 - eta) rho + eta D(rho), with D killing second-qubit polarization coherences.

    D is the phase-flip channel on the second qubit, so coherences between
    H and V of the delayed photon scale by (1 - eta).  Applied to the
    singlet this produces the partially mixed delay family exactly.
    """
    eta = _check_unit(eta, "eta")
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"expected a two-qubit state, got dims {rho.dims}")
    return DensityMatrix((2, 2), _dephased(rho.matrix, eta))


def dephased_singlet(eta: float) -> DensityMatrix:
    """(1 - eta)|S><S| + eta rho_mix."""
    return DensityMatrix((2, 2), _dephased(SINGLET, _check_unit(eta, "eta")))


def distinguishable_state(v: float) -> DensityMatrix:
    """v |S><S| + (1 - v) rho_dist."""
    v = _check_unit(v, "v")
    return DensityMatrix((2, 2), v * SINGLET + (1 - v) * RHO_DIST)


def mix(a: DensityMatrix, b: DensityMatrix, p: float) -> DensityMatrix:
    """Convex mixture p a + (1 - p) b."""
    p = _check_unit(p, "p")
    if a.dims != b.dims:
        raise DimensionMismatch(f"dims {a.dims} and {b.dims} do not match")
    return DensityMatrix(a.dims, p * a.matrix + (1 - p) * b.matrix)


def baseline_state(eta: float, weight: float = 0.86) -> DensityMatrix:
    """Experimental-baseline model: dephased mixture of singlet and rho_mix.

    The default weight 0.86 reproduces the measured witness value of the
    undecohered setup (W = 1 - 2 * weight = -0.72).
    """
    weight = _check_unit(weight, "weight")
    m = weight * SINGLET + (1 - weight) * RHO_MIX
    return DensityMatrix((2, 2), _dephased(m, _check_unit(eta, "eta")))


def baseline_witness_zero_crossing(weight: float = 0.86) -> float | None:
    """Dephasing eta at which the baseline witness W(eta) = 1 - 2 w (1 - eta) is zero.

    The crossing eta* = 1 - 1/(2w) exists only for w >= 1/2; below that the
    witness never goes negative and there is no crossing (None).
    """
    weight = _check_unit(weight, "weight")
    if weight < 0.5:
        return None
    return 1.0 - 1.0 / (2.0 * weight)


def dephase_choi(eta: float) -> np.ndarray:
    """Choi matrix of the dephasing channel (16x16), for CPTP checks."""
    eta = _check_unit(eta, "eta")
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # E_ij, row-major in (i, j)
    return sum(np.kron(_dephased(e, eta), e) for e in units)
