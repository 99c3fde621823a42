"""Dense complex linear algebra for two-qubit states.

Provides the checks every module shares, each raising ``QmathError`` saying what failed:
``check_unit`` for a parameter, or an array of them, in [0, 1], and ``check_density`` for
a matrix or a stack of them, which only a state file passes: every state the package builds
is a density matrix by construction, pinned by the unit tests with this same check.  The
unchecked ``PureState`` and ``DensityMatrix`` value types only back the reference states
the benchmark's tests read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
PSD_TOL = 1e-10

# Single-qubit constants used throughout.
I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = (SIGMA_X + SIGMA_Z) / np.sqrt(2)


class QmathError(Exception):
    """An input this module rejects, a parameter out of [0, 1] or a matrix that is no
    density matrix, with a message saying what failed."""


def check_unit(x, name: str):
    """A number ``x`` as a float, an array as a float array; QmathError naming the
    first entry not in [0, 1], so NaN is rejected too."""
    a = np.asarray(x, dtype=float)
    bad = ~((0.0 <= a) & (a <= 1.0))
    if bad.any():
        raise QmathError(f"{name} = {float(a[bad][0])!r} outside [0, 1]")
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class PureState:
    """Two-qubit state: four amplitudes, the first qubit the leftmost tensor factor."""

    amplitudes: np.ndarray

    # A method, not an inline outer product, because benchmarks/test_benchmark.py calls it.
    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


def check_density(m: np.ndarray) -> np.ndarray:
    """``m``; raise unless every matrix of it, one (d, d) matrix or a stack of them
    (possibly empty), is a density matrix: finite, Hermitian, unit trace and PSD
    within tolerance."""
    if not np.all(np.isfinite(m)):
        raise QmathError("density matrix contains NaN or Inf entries")
    mh = np.swapaxes(m.conj(), -1, -2)
    if np.max(np.abs(m - mh), initial=0.0) > NORM_TOL:
        raise QmathError("density matrix is not Hermitian")
    tr = np.ravel(np.trace(m, axis1=-2, axis2=-1).real)
    bad = np.abs(tr - 1.0) > NORM_TOL
    if bad.any():
        raise QmathError(f"trace is {float(tr[bad][0])!r}, expected 1")
    if np.min(np.linalg.eigvalsh((m + mh) / 2), initial=0.0) < -PSD_TOL:
        raise QmathError("density matrix has a negative eigenvalue")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A (4, 4) two-qubit density matrix, held as a complex array."""

    matrix: np.ndarray

    # Kept, though it only converts, because benchmarks/tracing.py wraps it by name.
    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
