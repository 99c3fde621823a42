import json
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmesim import certify, circuit, cli, qmath


def full_unitary(phi: float) -> np.ndarray:
    """End-to-end 16x16 unitary of the circuit."""
    u = np.eye(16, dtype=complex)
    for _, matrix, targets in circuit.gates(phi):
        u = np.column_stack([circuit.apply_gate(u[:, k], matrix, targets) for k in range(16)])
    return u


class TestStates:
    def test_singlet_components(self):
        v = circuit.singlet().amplitudes
        assert v[2] == pytest.approx(1 / np.sqrt(2))   # |HV>
        assert v[1] == pytest.approx(-1 / np.sqrt(2))  # |VH>
        assert v[0] == v[3] == 0

    def test_ideal_spin_state(self):
        v = circuit.ideal_spin_state(pi)
        assert np.allclose(v, [0.5, 0.5, 0.5, -0.5])


class TestCircuitStructure:
    def test_gate_list(self):
        assert [name for name, _, _ in circuit.gates(pi)] == [
            "H", "H", "CNOT", "CNOT", "GEOMETRY_PHASE", "CNOT", "CNOT",
        ]
        assert circuit.circuit_json(pi)["phases"] == [0.0, 0.0, 0.0, pi]

    def test_json_round_trip(self):
        d = json.loads(json.dumps(circuit.circuit_json(1.25), sort_keys=True))
        assert d["phi"] == 1.25
        assert d["gates"][4] == {"name": "GEOMETRY_PHASE", "targets": [1, 2]}

    @pytest.mark.parametrize("phi", [pi, 0.7, 2.5])
    def test_written_circuit_is_the_run_circuit(self, phi):
        # Rebuild the final state from what state_full.json writes: names, targets, phases.
        d = json.loads(json.dumps(circuit.circuit_json(phi)))
        matrices = {
            "H": qmath.HADAMARD,
            "CNOT": circuit.CNOT,
            "GEOMETRY_PHASE": np.diag(np.exp(1j * np.asarray(d["phases"], dtype=float))).astype(complex),
        }
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        for gate in d["gates"]:
            psi = circuit.apply_gate(psi, matrices[gate["name"]], tuple(gate["targets"]))
        assert np.array_equal(psi, circuit.run_circuit(phi)[1])

    def test_bad_phases_rejected(self):
        # phi is the closest-approach branch's phase; it must be finite.  The config
        # rejects any other where phi enters, so circuit.gates never sees one.
        for phi in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(cli.ParseError, match="^phi must be a finite number, got "):
                cli.ExperimentConfig(phi=phi).validate()

    def test_full_unitary_is_unitary(self):
        u = full_unitary(pi)
        assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-12)
        _, psi = circuit.run_circuit(pi)
        e0 = np.zeros(16)
        e0[0] = 1
        assert np.allclose(u @ e0, psi, atol=1e-12)


class TestEvolution:
    def test_checkpoint_state(self):
        psi, _ = circuit.run_circuit(pi)
        expect = np.zeros(16, dtype=complex)
        # (|0000> + |0011> + |1100> + e^{i pi}|1111>)/2
        expect[0b0000] = 0.5
        expect[0b0011] = 0.5
        expect[0b1100] = 0.5
        expect[0b1111] = -0.5
        assert np.allclose(psi, expect, atol=1e-12)

    def test_final_state_disentangles_geometry(self):
        _, psi = circuit.run_circuit(pi)
        # Axes (spin A, geometry ququart, spin B); the spins are traced out.
        amps = psi.reshape(2, 4, 2)
        geo = np.einsum("aib,ajb->ij", amps, amps.conj())
        assert np.trace(geo @ geo).real == pytest.approx(1.0, abs=1e-12)
        assert geo[0, 0].real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.7, pi / 2, pi, 5.0])
    def test_reduced_spin_state_matches_closed_form(self, phi):
        _, full = circuit.run_circuit(phi)
        rho = circuit.reduced_spin_state(full)
        v = circuit.ideal_spin_state(phi)
        assert np.vdot(v, rho @ v).real == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(1e308)
    @example(-1e308)
    @settings(max_examples=60)
    def test_spin_states_are_density_matrices(self, phi):
        # Built unchecked: a partial trace of a unit pure state, and its unitary
        # conjugate in the singlet frame.
        rho = circuit.reduced_spin_state(circuit.run_circuit(phi)[1])
        qmath.check_density(rho)
        qmath.check_density(circuit.singlet_frame(rho))

    def test_phi_zero_is_product_state(self):
        # phi = 0 puts equal phases on all branches, only a global phase: no entanglement.
        assert circuit.circuit_json(0.0)["phases"] == [0.0, 0.0, 0.0, 0.0]
        _, full = circuit.run_circuit(0.0)
        rho = circuit.reduced_spin_state(full)
        assert certify.derived_batch(rho[None])["min_pt_eigenvalue"][0] >= -1e-12


class TestCanonicalFrame:
    def test_rotation_is_unitary_local(self):
        g = circuit.CANONICAL_G
        assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-12)

    def test_maps_ideal_state_to_singlet(self):
        v, s = circuit.ideal_spin_state(pi), circuit.singlet().amplitudes
        rho = circuit.singlet_frame(np.outer(v, v.conj()))
        assert np.vdot(s, rho @ s).real == pytest.approx(1.0, abs=1e-12)

    def test_preserves_spectrum_and_negativity(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = qmath.check_density(m / np.trace(m).real)
        out = circuit.singlet_frame(rho)
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12)
        q = certify.derived_batch(np.stack([rho, out]))
        for key in ("min_pt_eigenvalue", "negativity"):
            assert q[key][1] == pytest.approx(q[key][0], abs=1e-12)
