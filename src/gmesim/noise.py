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


def rho_mix() -> DensityMatrix:
    """Fully dephased singlet: (|HV><HV| + |VH><VH|)/2."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    return DensityMatrix((2, 2), m)


def rho_dist() -> DensityMatrix:
    """Fully distinguishable-photon state: (|H+><H+| + |+H><+H|)/2."""
    h_plus = np.zeros(4, dtype=complex)
    h_plus[[2, 3]] = 1 / np.sqrt(2)  # |HV>, |HH>
    plus_h = np.zeros(4, dtype=complex)
    plus_h[[1, 3]] = 1 / np.sqrt(2)  # |VH>, |HH>
    m = (np.outer(h_plus, h_plus.conj()) + np.outer(plus_h, plus_h.conj())) / 2
    return DensityMatrix((2, 2), m)


def dephase(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """(1 - eta) rho + eta D(rho), with D killing second-qubit polarization coherences.

    D is the phase-flip channel on the second qubit, so coherences between
    H and V of the delayed photon scale by (1 - eta).  Applied to the
    singlet this produces the partially mixed delay family exactly.
    """
    eta = _check_unit(eta, "eta")
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"expected a two-qubit state, got dims {rho.dims}")
    z2 = kron(I2, SIGMA_Z)
    dephased = 0.5 * (rho.matrix + z2 @ rho.matrix @ z2)
    return DensityMatrix((2, 2), (1 - eta) * rho.matrix + eta * dephased)


def dephased_singlet(eta: float) -> DensityMatrix:
    """(1 - eta)|S><S| + eta rho_mix."""
    return dephase(singlet().density(), eta)


def distinguishable_state(v: float) -> DensityMatrix:
    """v |S><S| + (1 - v) rho_dist."""
    v = _check_unit(v, "v")
    return mix(singlet().density(), rho_dist(), v)


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
    return dephase(mix(singlet().density(), rho_mix(), weight), eta)


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
    choi = np.zeros((16, 16), dtype=complex)
    z2 = kron(I2, SIGMA_Z)
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            out = (1 - eta) * e + eta * 0.5 * (e + z2 @ e @ z2)
            choi += np.kron(out, e)
    return choi
