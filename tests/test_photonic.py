import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmesim import circuit, cli, noise, photonic, qmath

# Mode tuples in mode_index order.
MODES = [(p, pol, l) for p in photonic.PATHS for pol in photonic.POLS for l in photonic.LABELS]


# Reference builders: the per-mode loops over every (path, polarization,
# label) that the structured builders replace.
def _ref_swaps(pairs) -> np.ndarray:
    u = np.eye(photonic.N_MODES, dtype=complex)
    for a, b in pairs:
        i, j = photonic.mode_index(*a), photonic.mode_index(*b)
        u[[i, j], :] = u[[j, i], :]
    return u


def reference_cz_unitary(bs) -> np.ndarray:
    u = np.eye(photonic.N_MODES, dtype=complex)
    for pol, r in (("H", bs.R_H), ("V", bs.R_V)):
        block = photonic.coupler_unitary(r)
        for label in photonic.LABELS:
            for pa, pb in (("out1", "1"), ("2", "3"), ("4", "out4")):
                i, j = photonic.mode_index(pa, pol, label), photonic.mode_index(pb, pol, label)
                u[np.ix_([i, j], [i, j])] = block
    return u


def reference_full_unitary(bs) -> np.ndarray:
    labels = photonic.LABELS
    bd1 = _ref_swaps([(("out1", "V", l), ("1", "V", l)) for l in labels]
                     + [(("out1", "H", l), ("2", "H", l)) for l in labels])
    bd2 = _ref_swaps([(("out4", "H", l), ("3", "H", l)) for l in labels]
                     + [(("out4", "V", l), ("4", "V", l)) for l in labels])
    hwp = _ref_swaps([((p, "H", l), (p, "V", l)) for p in ("2", "3") for l in labels])
    return hwp @ reference_cz_unitary(bs) @ hwp @ (bd2 @ bd1)


def walk_post_selection(s: photonic.FockState) -> tuple[np.ndarray, float]:
    """Reference post-selection: decode each coincidence Fock term by its path and
    polarization names, then trace the labels out.  Returns (rho, mass)."""
    logical = {"1": 0, "2": 1, "3": 1, "4": 0}
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    mass = 0.0
    for (i, j), amp in s.terms.items():
        m1, m2 = MODES[i], MODES[j]
        if m1[0] in ("3", "4") and m2[0] in ("1", "2"):
            m1, m2 = m2, m1
        if not (m1[0] in ("1", "2") and m2[0] in ("3", "4")):
            continue
        mass += abs(amp) ** 2
        qa, qb = int(m1[1] == "H"), int(m2[1] == "H")
        if logical[m1[0]] == qa and logical[m2[0]] == qb:
            psi[qa, m1[2], qb, m2[2]] += amp
    psi /= np.linalg.norm(psi)
    return np.einsum("akbl,ckdl->abcd", psi, psi.conj()).reshape(4, 4), mass


def reference_hom_point(gamma: float, bs) -> tuple[float, float, np.ndarray]:
    """(P, v, rho) at one overlap, each from its own product state evolved on its own."""
    d = np.sqrt(1.0 - gamma * gamma)
    sp = photonic.single_photon

    def second(path, pols):
        return sum(gamma * sp(path, pol, 0) + d * sp(path, pol, 1) for pol in pols)

    dip = photonic.evolve_two_photon(photonic.product_state(sp("2", "V", 0), second("3", "V")),
                                     photonic.build_cz_network(bs))
    p = sum(abs(amp) ** 2 for (i, j), amp in dip.terms.items()
            if {MODES[i][0], MODES[j][0]} == {"2", "3"})
    photon_a = (sp("out1", "H", 0) + sp("out1", "V", 0)) / np.sqrt(2)
    out = photonic.evolve_two_photon(
        photonic.product_state(photon_a, second("out4", "HV") / np.sqrt(2)),
        photonic.build_full_network(bs))
    rho, _ = walk_post_selection(out)
    canon = circuit.canonicalize_to_singlet(qmath.DensityMatrix((2, 2), rho)).matrix
    s, rd = circuit.singlet().density().matrix, noise.rho_dist().matrix
    diff = s - rd
    v = np.trace((canon - rd).conj().T @ diff).real / np.trace(diff.conj().T @ diff).real
    return p, v, rho


class TestModes:
    def test_index_round_trip(self):
        # (path, pol, label) -> mode_index is a bijection onto range(N_MODES).
        idx = [photonic.mode_index(p, pol, l) for p, pol, l in MODES]
        assert sorted(idx) == list(range(photonic.N_MODES))

    def test_mode_count(self):
        assert photonic.N_MODES == 24


class TestFockState:
    def test_tensor_round_trip_with_bunching(self):
        i = photonic.mode_index("2", "V", 0)
        j = photonic.mode_index("3", "V", 0)
        t = np.zeros((photonic.N_MODES, photonic.N_MODES), dtype=complex)
        t[i, i] = 0.6 / np.sqrt(2)  # |2>_i carries the sqrt(2) bosonic factor
        t[i, j] = 0.8               # 0.8 a_i^dag a_j^dag, held as t_ij = t_ji = 0.4
        s = photonic.FockState(t)
        assert np.allclose(s.tensor, s.tensor.T)
        assert s.tensor[i, j] == pytest.approx(0.4)
        assert s.terms == pytest.approx({(i, i): 0.6, (i, j): 0.8})
        assert s.norm() == pytest.approx(1.0)

    def test_wrong_tensor_shape_rejected(self):
        with pytest.raises(photonic.PhotonicError):
            photonic.FockState(np.zeros((4, 4)))

    def test_product_state_same_mode_gives_doubly_occupied(self):
        v = photonic.single_photon("2", "V")
        s = photonic.product_state(v, v)
        i = photonic.mode_index("2", "V", 0)
        assert s.terms[(i, i)] == pytest.approx(1.0)

    def test_product_state_orthogonal_modes(self):
        s = photonic.product_state(
            photonic.single_photon("1", "V"), photonic.single_photon("4", "V")
        )
        assert s.norm() == pytest.approx(1.0)
        assert len(s.terms) == 1

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_evolution_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=photonic.N_MODES) + 1j * rng.normal(size=photonic.N_MODES)
        b = rng.normal(size=photonic.N_MODES) + 1j * rng.normal(size=photonic.N_MODES)
        s = photonic.product_state(a / np.linalg.norm(a), b / np.linalg.norm(b))
        out = photonic.evolve_two_photon(s, photonic.build_full_network())
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_input_rejected(self):
        i = photonic.mode_index("1", "V", 0)
        t = np.zeros((photonic.N_MODES, photonic.N_MODES))
        t[i, i] = 0.5 / np.sqrt(2)  # amplitude 0.5 on |2>_i: norm 0.25
        s = photonic.FockState(t)
        assert s.norm() == pytest.approx(0.25)
        with pytest.raises(photonic.PhotonNumberMismatch):
            photonic.evolve_two_photon(s, photonic.build_cz_network())

    def test_output_amplitudes_are_permanents(self):
        net = photonic.build_full_network(photonic.EXPERIMENTAL_BS)
        # a_i^dag -> sum_r (U^dag)_ir b_r^dag: a single photon entering mode i
        # leaves in mode r with amplitude m[r, i].
        m = net.mode_unitary.conj()
        n = photonic.N_MODES
        eye = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                out = photonic.evolve_two_photon(photonic.product_state(eye[i], eye[j]), net)
                # perm[[m_ri, m_rj], [m_si, m_sj]] off the diagonal, sqrt(2) m_ri m_rj on it.
                expect = np.outer(m[:, i], m[:, j])
                expect = expect + expect.T
                np.fill_diagonal(expect, np.sqrt(2) * m[:, i] * m[:, j])
                got = np.zeros((n, n), dtype=complex)
                for (r, s), amp in out.terms.items():
                    got[r, s] = amp
                assert np.max(np.abs(got - np.triu(expect))) < 1e-12


class TestNetworks:
    def test_coupler_unitary(self):
        u = photonic.coupler_unitary(1 / 3)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert u[0, 0] == pytest.approx(1j / np.sqrt(3))
        assert u[0, 1] == pytest.approx(np.sqrt(2 / 3))

    def test_bad_reflectivity(self):
        with pytest.raises(photonic.OutOfRange):
            photonic.coupler_unitary(1.5)
        with pytest.raises(photonic.OutOfRange):
            photonic.BsParams(R_H=-0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(1 / 3, 1 / 3)  # the ideal preset
    @example(0.329, 0.337)  # the experimental preset
    @settings(max_examples=25, deadline=None)
    def test_networks_equal_the_per_mode_reference(self, r_h, r_v):
        bs = photonic.BsParams(r_h, r_v)
        assert np.array_equal(photonic.build_cz_network(bs).mode_unitary, reference_cz_unitary(bs))
        assert np.array_equal(photonic.build_full_network(bs).mode_unitary,
                              reference_full_unitary(bs))

    def test_networks_are_cached_and_read_only(self):
        for build in (photonic.build_cz_network, photonic.build_full_network):
            net = build(photonic.EXPERIMENTAL_BS)
            assert build(photonic.BsParams(0.329, 0.337)) is net
            with pytest.raises(ValueError):
                net.mode_unitary[0, 0] = 0.0

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(photonic.PhotonicError):
            photonic.OpticalNetwork(2 * np.eye(photonic.N_MODES))

    def test_all_networks_unitary(self):
        for net in (
            photonic.build_cz_network(),
            photonic.build_full_network(),
            photonic.build_full_network(photonic.EXPERIMENTAL_BS),
        ):
            u = net.mode_unitary
            assert np.allclose(u @ u.conj().T, np.eye(photonic.N_MODES), atol=1e-12)


class TestCzGate:
    def test_truth_table_signs(self):
        channel, _ = photonic.cz_channel(photonic.build_cz_network())
        amps = np.diagonal(channel)
        # Equal magnitude 1/3 on every branch, one branch with opposite sign.
        assert np.allclose(np.abs(amps), 1 / 3, atol=1e-12)
        signs = amps / amps[0]
        assert np.allclose(signs, [1, 1, 1, -1], atol=1e-12)

    def test_success_probability_one_ninth(self):
        probs = photonic.cz_success_probabilities(photonic.build_cz_network())
        assert np.allclose(probs, 1 / 9, atol=1e-12)

    def test_process_fidelity_ideal(self):
        assert photonic.process_fidelity_to_cz(photonic.build_cz_network()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_process_fidelity_degrades_off_third(self):
        net = photonic.build_cz_network(photonic.BsParams(0.5, 0.5))
        assert photonic.process_fidelity_to_cz(net) < 0.99


class TestCommandCosts:
    def test_photonic_verify_evolves_six_states(self, tmp_path, monkeypatch):
        # Four logical inputs for the CZ channel, two HOM endpoints.
        calls = []
        evolve = photonic.evolve_two_photon
        monkeypatch.setattr(photonic, "evolve_two_photon",
                            lambda *a: calls.append(1) or evolve(*a))
        assert cli.main(["--out", str(tmp_path), "photonic-verify"]) == 0
        assert len(calls) == 6

    def test_hom_scan_evolutions_do_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        calls = []
        evolve = photonic.evolve_two_photon
        monkeypatch.setattr(photonic, "evolve_two_photon",
                            lambda *a: calls.append(1) or evolve(*a))
        counts = []
        for n in (3, 100):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"gamma_grid": [k / (n - 1) for k in range(n)]}))
            calls.clear()
            assert cli.main(["--config", str(cfg), "--out", str(tmp_path / f"out{n}"),
                             "hom-scan"]) == 0
            counts.append(len(calls))
        # Two label components each for the dip (its grid and the visibility's
        # endpoints) and the pipeline.
        assert counts == [4, 4]

    def test_hom_scan_builds_each_network_once(self, tmp_path, monkeypatch):
        built = []
        check = photonic.OpticalNetwork.__post_init__
        monkeypatch.setattr(photonic.OpticalNetwork, "__post_init__",
                            lambda net: built.append(1) or check(net))
        photonic.build_cz_network.cache_clear()
        photonic.build_full_network.cache_clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_grid": [k / 99 for k in range(100)]}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "hom-scan"]) == 0
        assert photonic.build_cz_network.cache_info().misses == 1
        assert photonic.build_full_network.cache_info().misses == 1
        assert len(built) == 2


class TestHom:
    def test_visibility_ideal(self):
        assert photonic.hom_visibility() == pytest.approx(0.8, abs=1e-12)

    def test_visibility_balanced_splitter(self):
        bs = photonic.BsParams(0.5, 0.5)
        assert photonic.hom_visibility(bs) == pytest.approx(1.0, abs=1e-12)

    def test_dip_endpoints(self):
        p_dist, p_ind = photonic.hom_coincidence([0.0, 1.0])
        assert p_dist == pytest.approx(5 / 9, abs=1e-12)
        assert p_ind == pytest.approx(1 / 9, abs=1e-12)

    def test_dip_law_interior(self):
        # R = 1/3 coupler: P = R^2 + T^2 - 2 R T gamma^2 = (5 - 4 gamma^2) / 9.
        gammas = np.linspace(0.05, 0.95, 19)
        probs = photonic.hom_coincidence(gammas)
        assert np.max(np.abs(probs - (5 - 4 * gammas ** 2) / 9)) < 1e-12

    def test_dip_is_monotone(self):
        probs = photonic.hom_coincidence(np.linspace(0, 1, 11))
        assert np.all(np.diff(probs) < 0)

    def test_bad_overlap(self):
        with pytest.raises(photonic.OutOfRange):
            photonic.hom_coincidence([1.5])


class TestGridKernels:
    GRID = np.unique(np.concatenate([[0.0, 1.0], np.random.default_rng(37).uniform(0, 1, 35)]))

    @pytest.mark.parametrize("bs", [photonic.IDEAL_BS, photonic.EXPERIMENTAL_BS,
                                    photonic.BsParams(0.3, 0.45)], ids=str)
    def test_kernels_match_a_per_point_reference(self, bs):
        assert len(self.GRID) == 37
        probs, weights, visibility = photonic.hom_scan(self.GRID, bs)
        assert visibility == photonic.hom_visibility(bs)
        rho, _ = photonic.simulate_pipeline_grid(self.GRID, bs)
        for k, gamma in enumerate(self.GRID):
            p, v, r = reference_hom_point(float(gamma), bs)
            assert abs(probs[k] - p) < 1e-12
            assert abs(weights[k] - v) < 1e-12
            assert np.max(np.abs(rho[k] - r)) < 1e-12

    def test_single_point_views_equal_the_grid(self):
        rho, mass = photonic.simulate_pipeline_grid([0.3, 0.7])
        one, p = photonic.simulate_pipeline(gamma=0.7)
        assert np.max(np.abs(one.matrix - rho[1])) < 1e-15 and abs(p - mass[1]) < 1e-15
        canon = circuit.canonicalize_to_singlet(one)
        v = photonic.fit_visibility_weights(canon.matrix[None])
        assert v.shape == (1,) and photonic.fit_visibility_weight(canon)[0] == v[0]


class TestPipeline:
    def test_ideal_pipeline_state_and_probability(self):
        rho, prob = photonic.simulate_pipeline()
        assert prob == pytest.approx(1 / 9, abs=1e-12)
        target = circuit.ideal_spin_state(np.pi)
        assert qmath.fidelity_pure(rho, target) == pytest.approx(1.0, abs=1e-12)

    def test_fully_distinguishable_pipeline(self):
        rho, prob = photonic.simulate_pipeline(gamma=0.0)
        canon = circuit.canonicalize_to_singlet(rho)
        diff = canon.matrix - noise.rho_dist().matrix
        assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_gamma_family_matches_two_state_mixture(self, gamma):
        rho, _ = photonic.simulate_pipeline(gamma=gamma)
        canon = circuit.canonicalize_to_singlet(rho)
        v, dist = photonic.fit_visibility_weight(canon)
        assert dist < 1e-9
        assert 0.0 <= v <= 1.0 + 1e-12

    def test_visibility_weight_endpoints(self):
        for gamma, expect in ((0.0, 0.0), (1.0, 1.0)):
            rho, _ = photonic.simulate_pipeline(gamma=gamma)
            v, _ = photonic.fit_visibility_weight(circuit.canonicalize_to_singlet(rho))
            assert v == pytest.approx(expect, abs=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_post_selection_matches_a_walk_over_fock_terms(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=photonic.N_MODES) + 1j * rng.normal(size=photonic.N_MODES)
                for _ in range(2))
        s = photonic.evolve_two_photon(
            photonic.product_state(a / np.linalg.norm(a), b / np.linalg.norm(b)),
            photonic.build_full_network(photonic.EXPERIMENTAL_BS),
        )
        expect, mass = walk_post_selection(s)
        rho, got_mass = photonic.post_select_coincidence(s.tensor[None])
        assert got_mass[0] == pytest.approx(mass, abs=1e-12)
        assert np.max(np.abs(rho[0] - expect)) < 1e-12

    def test_empty_post_selection_raises(self):
        s = photonic.product_state(
            photonic.single_photon("out1", "V"), photonic.single_photon("out4", "V")
        )
        with pytest.raises(photonic.EmptyPostSelection):
            photonic.post_select_coincidence(s.tensor[None])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_tensors_raise(self, entry):
        # NaN passes the mass and norm tests; the decoded-vector check catches it,
        # and the reduced-state check catches a norm that overflows to inf.
        t = np.full((1, photonic.N_MODES, photonic.N_MODES), entry)
        with np.errstate(all="ignore"), pytest.raises(qmath.QmathError):
            photonic.post_select_coincidence(t)


def delayed_singlet(eta: float) -> qmath.DensityMatrix:
    """Polarization state after a birefringent delay on the second photon.

    Builds the delayed two-photon ket explicitly with temporal labels
    (overlap 1 - eta between the delayed and undelayed wavepackets) and
    traces the labels out.  Cross-checks the density-matrix dephasing
    channel of the noise module.
    """
    g = 1.0 - qmath.check_unit(eta, "eta")
    d = np.sqrt(max(0.0, 1.0 - g * g))
    # Axes: (pol_1, pol_2, label_2) with qubit value 0=V, 1=H.
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[1, 0, 0] = 1 / np.sqrt(2)       # |H>|V, t_V>
    psi[0, 1, 0] = -g / np.sqrt(2)      # -|V>|H, t_H>, overlap with t_V
    psi[0, 1, 1] = -d / np.sqrt(2)      # orthogonal remainder of t_H
    full = qmath.DensityMatrix((2, 2, 2), np.outer(psi.reshape(-1), psi.reshape(-1).conj()))
    return qmath.partial_trace(full, keep=(0, 1))


class TestDelayedSinglet:
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_dephasing_channel(self, eta):
        a = delayed_singlet(eta).matrix
        b = noise.dephased_singlet(eta).matrix
        assert np.max(np.abs(a - b)) < 1e-12

    def test_bad_eta(self):
        # The optical reference and the channel it checks reject eta alike.
        for model in (delayed_singlet, noise.dephased_singlet):
            with pytest.raises(photonic.OutOfRange):
                model(-0.1)
