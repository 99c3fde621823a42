import json
from math import pi

import numpy as np
import pytest

from gmesim import certify, circuit, qmath


def full_unitary(c: circuit.GmeCircuit) -> np.ndarray:
    """End-to-end 16x16 unitary of the circuit."""
    u = np.eye(16, dtype=complex)
    for gate in c.gates:
        u = np.column_stack([circuit.apply_gate(u[:, k], gate.matrix, gate.targets)
                             for k in range(16)])
    return u


class TestStates:
    def test_singlet_components(self):
        v = circuit.singlet().amplitudes
        assert v[2] == pytest.approx(1 / np.sqrt(2))   # |HV>
        assert v[1] == pytest.approx(-1 / np.sqrt(2))  # |VH>
        assert v[0] == v[3] == 0

    def test_ideal_spin_state(self):
        v = circuit.ideal_spin_state(pi).amplitudes
        assert np.allclose(v, [0.5, 0.5, 0.5, -0.5])


class TestCircuitStructure:
    def test_gate_list(self):
        c = circuit.build_gme_circuit()
        assert [g.name for g in c.gates] == [
            "H", "H", "CNOT", "CNOT", "GEOMETRY_PHASE", "CNOT", "CNOT",
        ]
        assert c.phases == (0.0, 0.0, 0.0, pi)

    def test_json_round_trip(self):
        c = circuit.build_gme_circuit(phi=1.25)
        d = json.loads(json.dumps(c.to_json_dict(), sort_keys=True))
        assert d["phi"] == 1.25
        assert d["gates"][4] == {"name": "GEOMETRY_PHASE", "targets": [1, 2]}

    def test_bad_phases_rejected(self):
        # phi is the closest-approach branch's phase; it must be finite.
        for phi in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                circuit.build_gme_circuit(phi=phi)

    def test_full_unitary_is_unitary(self):
        u = full_unitary(circuit.build_gme_circuit())
        assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
        psi = circuit.run_circuit(circuit.build_gme_circuit())
        e0 = np.zeros(16)
        e0[0] = 1
        assert np.allclose(u @ e0, psi, atol=1e-12)


class TestEvolution:
    def test_checkpoint_state(self):
        psi = circuit.run_circuit(circuit.build_gme_circuit(), stop_after_free_fall=True)
        expect = np.zeros(16, dtype=complex)
        # (|0000> + |0011> + |1100> + e^{i pi}|1111>)/2
        expect[0b0000] = 0.5
        expect[0b0011] = 0.5
        expect[0b1100] = 0.5
        expect[0b1111] = -0.5
        assert np.allclose(psi, expect, atol=1e-12)

    def test_final_state_disentangles_geometry(self):
        psi = circuit.run_circuit(circuit.build_gme_circuit())
        # Axes (spin A, geometry ququart, spin B); the spins are traced out.
        amps = psi.reshape(2, 4, 2)
        geo = np.einsum("aib,ajb->ij", amps, amps.conj())
        assert np.trace(geo @ geo).real == pytest.approx(1.0, abs=1e-12)
        assert geo[0, 0].real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.7, pi / 2, pi, 5.0])
    def test_reduced_spin_state_matches_closed_form(self, phi):
        full = circuit.run_circuit(circuit.build_gme_circuit(phi))
        rho = circuit.reduced_spin_state(full)
        assert qmath.fidelity_pure(rho, circuit.ideal_spin_state(phi)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_phi_zero_is_product_state(self):
        rho = circuit.reduced_spin_state(
            circuit.run_circuit(circuit.build_gme_circuit(0.0))
        )
        eigs, _ = certify.ppt_report(rho)
        assert min(eigs) >= -1e-12

    def test_custom_phase_vector(self):
        # phi = 0 puts equal phases on all branches, only a global phase: no entanglement.
        c = circuit.build_gme_circuit(phi=0.0)
        assert c.phases == (0.0, 0.0, 0.0, 0.0)
        rho = circuit.reduced_spin_state(circuit.run_circuit(c))
        eigs, _ = certify.ppt_report(rho)
        assert min(eigs) >= -1e-12


class TestCanonicalFrame:
    def test_rotation_is_unitary_local(self):
        g = circuit.CANONICAL_G
        assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-12)

    def test_maps_ideal_state_to_singlet(self):
        rho = circuit.canonicalize_to_singlet(circuit.ideal_spin_state(pi).density())
        assert qmath.fidelity_pure(rho, circuit.singlet()) == pytest.approx(1.0, abs=1e-12)

    def test_preserves_spectrum_and_negativity(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = qmath.DensityMatrix((2, 2), m / np.trace(m).real)
        out = circuit.canonicalize_to_singlet(rho)
        assert np.allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-12
        )
        (*_, n_in), _ = certify.ppt_report(rho)
        (*_, n_out), _ = certify.ppt_report(out)
        assert n_out == pytest.approx(n_in, abs=1e-12)
