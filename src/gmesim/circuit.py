"""Abstract four-qubit circuit for the mediated-entanglement simulator.

Qubit ordering is (spin A, geometry 1, geometry 2, spin B); index 0 is the
leftmost tensor factor.  Qubit value 0 maps to vertical polarization V and
1 to horizontal polarization H throughout the artifact.
"""

from __future__ import annotations

from math import pi

import numpy as np

from . import qmath

# Fixed qubit <-> polarization dictionary (serialized with every output).
BASIS_CONVENTION = {"0": "V", "1": "H"}


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


def gates(phi: float) -> list[tuple[str, np.ndarray, tuple[int, ...]]]:
    """The circuit for free-fall phase ``phi`` as (name, matrix, targets) triples: the CNOTs
    write which-path into the geometry qubits, the geometry branches |00>, |01>, |10>, |11>
    pick up phases (0, 0, 0, phi) in free fall (only the closest-approach branch does, the
    regime the simulator targets), and the same CNOTs then erase the record.  ``phi`` is
    finite: ``ExperimentConfig.validate`` rejects any other where it enters."""
    phases = np.asarray((0.0, 0.0, 0.0, float(phi)), dtype=float)
    which_path = [("CNOT", CNOT, (0, 1)), ("CNOT", CNOT, (3, 2))]
    return [("H", qmath.HADAMARD, (0,)), ("H", qmath.HADAMARD, (3,)), *which_path,
            ("GEOMETRY_PHASE", np.diag(np.exp(1j * phases)).astype(complex), (1, 2)),
            *which_path]


def circuit_json(phi: float) -> dict:
    """The ``circuit`` block of ``state_full.json``, read from ``gates(phi)``."""
    return {
        "phi": float(phi),
        "phases": [0.0, 0.0, 0.0, float(phi)],
        "gates": [{"name": name, "targets": list(t)} for name, _, t in gates(phi)],
    }


def apply_gate(state: np.ndarray, gate: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit gate to the given target qubits of a 4-qubit state."""
    k = len(targets)
    order = [*targets, *(q for q in range(4) if q not in targets)]  # np.moveaxis's order
    psi = state.reshape(2, 2, 2, 2).transpose(order)
    psi = (gate @ psi.reshape(2**k, -1)).reshape(psi.shape)
    return psi.transpose([order.index(q) for q in range(4)]).reshape(-1)


def run_circuit(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Run ``gates(phi)`` on |0000>: the (16,) amplitudes at the free-fall checkpoint,
    before recombination erases the geometry qubits' which-path record, and at the end."""
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1.0
    for name, matrix, targets in gates(phi):
        psi = apply_gate(psi, matrix, targets)
        if name == "GEOMETRY_PHASE":
            checkpoint = psi
    return checkpoint, psi


def reduced_spin_state(full: np.ndarray) -> np.ndarray:
    """The (4, 4) spin state, the geometry traced out of ``run_circuit``'s final state: a
    partial trace of a unit vector's projector, so a density matrix by construction."""
    psi = full.reshape(2, 2, 2, 2)
    # Axes (a, g1, g2, b, a', g1', g2', b'): trace g2 = g2', then g1 = g1'.
    rho = np.trace(np.multiply.outer(psi, psi.conj()), axis1=2, axis2=6)
    return np.trace(rho, axis1=1, axis2=4).reshape(4, 4)


def _canonical_rotation() -> np.ndarray:
    """Single-qubit unitary G with (I x G) |psi_ideal(pi)> = |singlet>.

    Solved from the coefficient matrix of the ideal phi=pi state, which is
    maximally entangled, so G is unique up to global phase and unitary (both
    coefficient matrices are unitary up to the same 1/sqrt(2)); the phase is
    fixed by the construction below.
    """
    m = ideal_spin_state(pi).reshape(2, 2)
    s = singlet().amplitudes.reshape(2, 2)
    return np.linalg.solve(m, s).T


CANONICAL_G = _canonical_rotation()
U_CANON = np.kron(np.eye(2, dtype=complex), CANONICAL_G)


def singlet_frame(m: np.ndarray) -> np.ndarray:
    """(I x G) m (I x G)^dag for one (4, 4) matrix or a stack of them: the fixed local frame
    change taking the ideal state to the singlet.  The same map is applied to every input so
    that noise families transform consistently; it changes no local-unitary invariant."""
    return U_CANON @ m @ U_CANON.conj().T
