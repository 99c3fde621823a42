"""Abstract four-qubit circuit for the mediated-entanglement simulator.

Qubit ordering is (spin A, geometry 1, geometry 2, spin B); index 0 is the
leftmost tensor factor.  Qubit value 0 maps to vertical polarization V and
1 to horizontal polarization H throughout the artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from . import qmath

# Fixed qubit <-> polarization dictionary (serialized with every output).
BASIS_CONVENTION = {"0": "V", "1": "H"}

N_QUBITS = 4


def singlet() -> qmath.PureState:
    """(|HV> - |VH>)/sqrt(2) in the 0=V, 1=H encoding."""
    v = np.zeros(4, dtype=complex)
    v[2] = 1 / np.sqrt(2)   # |HV>
    v[1] = -1 / np.sqrt(2)  # |VH>
    return qmath.PureState(v)


def ideal_spin_state(phi: float) -> np.ndarray:
    """Amplitudes (|00> + |01> + |10> + e^{i phi}|11>)/2 of the post-recombination spin state."""
    return np.array([1, 1, 1, np.exp(1j * phi)], dtype=complex) / 2


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class Gate:
    name: str
    matrix: np.ndarray
    targets: tuple[int, ...]


@dataclass(frozen=True)
class GmeCircuit:
    """Gate list realizing superposition, free fall and recombination stages."""

    phi: float
    phases: tuple[float, float, float, float]
    gates: tuple[Gate, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "phi": float(self.phi),
            "phases": [float(p) for p in self.phases],
            "gates": [{"name": g.name, "targets": list(g.targets)} for g in self.gates],
        }


def geometry_phase_gate(phases) -> np.ndarray:
    """Diagonal phase on the geometry branches |00>, |01>, |10>, |11>."""
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float))).astype(complex)


def build_gme_circuit(phi: float = pi) -> GmeCircuit:
    """Assemble the circuit for free-fall phase ``phi``.

    The geometry ququart's branch phases are (0, 0, 0, phi): only the
    closest-approach branch picks up a phase, the regime the simulator targets.
    """
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    phases = (0.0, 0.0, 0.0, float(phi))
    gates = (
        Gate("H", qmath.HADAMARD, (0,)),
        Gate("H", qmath.HADAMARD, (3,)),
        Gate("CNOT", CNOT, (0, 1)),
        Gate("CNOT", CNOT, (3, 2)),
        Gate("GEOMETRY_PHASE", geometry_phase_gate(phases), (1, 2)),
        Gate("CNOT", CNOT, (0, 1)),
        Gate("CNOT", CNOT, (3, 2)),
    )
    return GmeCircuit(float(phi), phases, gates)


def apply_gate(state: np.ndarray, gate: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit gate to the given target qubits of a 4-qubit state."""
    k = len(targets)
    psi = np.moveaxis(state.reshape([2] * N_QUBITS), targets, range(k))
    psi = (gate @ psi.reshape(2**k, -1)).reshape(psi.shape)
    return np.moveaxis(psi, range(k), targets).reshape(-1)


def run_circuit(c: GmeCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Run the circuit on |0000>: the (16,) amplitudes at the free-fall checkpoint, before
    recombination erases the geometry qubits' which-path record, and at the end."""
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    for gate in c.gates:
        psi = apply_gate(psi, gate.matrix, gate.targets)
        if gate.name == "GEOMETRY_PHASE":
            checkpoint = psi
    return checkpoint, psi


def reduced_spin_state(full: np.ndarray) -> np.ndarray:
    """The checked (4, 4) spin state: the geometry traced out of ``run_circuit``'s final state."""
    psi = full.reshape(2, 2, 2, 2)
    # Axes (a, g1, g2, b, a', g1', g2', b'): trace g2 = g2', then g1 = g1'.
    rho = np.trace(np.multiply.outer(psi, psi.conj()), axis1=2, axis2=6)
    return qmath.check_density(np.trace(rho, axis1=1, axis2=4).reshape(4, 4))


def _canonical_rotation() -> np.ndarray:
    """Single-qubit unitary G with (I x G) |psi_ideal(pi)> = |singlet>.

    Solved from the coefficient matrix of the ideal phi=pi state, which is
    maximally entangled, so G is unique up to global phase; the phase is
    fixed by the construction below.
    """
    m = ideal_spin_state(pi).reshape(2, 2)
    s = singlet().amplitudes.reshape(2, 2)
    g = np.linalg.solve(m, s).T
    if np.max(np.abs(g @ g.conj().T - np.eye(2))) > 1e-12:
        raise qmath.QmathError("canonical rotation is not unitary")
    return g


CANONICAL_G = _canonical_rotation()
U_CANON = np.kron(np.eye(2, dtype=complex), CANONICAL_G)


def singlet_frame(m: np.ndarray) -> np.ndarray:
    """(I x G) m (I x G)^dag for one (4, 4) matrix or a stack of them: the fixed local frame
    change taking the ideal state to the singlet.  The same map is applied to every input so
    that noise families transform consistently; it changes no local-unitary invariant."""
    return U_CANON @ m @ U_CANON.conj().T
