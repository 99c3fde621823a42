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


def fock_terms(t: np.ndarray) -> dict[tuple[int, int], complex]:
    """Fock amplitudes of one creation tensor, keyed by mode pairs i <= j: 2 t_ij for
    |1_i 1_j>, sqrt(2) t_ii for |2_i>.  Entries |t_ij| <= 1e-15 are left out."""
    terms = {}
    for i in range(photonic.N_MODES):
        for j in range(i, photonic.N_MODES):
            if abs(t[i, j]) > 1e-15:
                terms[(i, j)] = complex(t[i, j] * (np.sqrt(2) if i == j else 2))
    return terms


def pair(photon_a: np.ndarray, photon_b: np.ndarray) -> np.ndarray:
    """The (1, N, N) stack of one photon pair."""
    return photonic.pair_tensors(photon_a[None], photon_b[None])


def random_photon(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=photonic.N_MODES) + 1j * rng.normal(size=photonic.N_MODES)
    return v / np.linalg.norm(v)


def walk_post_selection(t: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference post-selection of one creation tensor: decode each coincidence Fock
    term by its path and polarization names, then trace the labels out.  Returns
    (rho, mass)."""
    logical = {"1": 0, "2": 1, "3": 1, "4": 0}
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    mass = 0.0
    for (i, j), amp in fock_terms(t).items():
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
    """(P, v, rho) at one overlap, each from its own photon pair evolved on its own."""
    d = np.sqrt(1.0 - gamma * gamma)
    sp = photonic.single_photon

    def second(path, pols):
        return sum(gamma * sp(path, pol, 0) + d * sp(path, pol, 1) for pol in pols)

    (dip,) = photonic.evolve(pair(sp("2", "V", 0), second("3", "V")),
                             photonic.build_cz_network(bs))
    p = sum(abs(amp) ** 2 for (i, j), amp in fock_terms(dip).items()
            if {MODES[i][0], MODES[j][0]} == {"2", "3"})
    photon_a = (sp("out1", "H", 0) + sp("out1", "V", 0)) / np.sqrt(2)
    (out,) = photonic.evolve(pair(photon_a, second("out4", "HV") / np.sqrt(2)),
                             photonic.build_full_network(bs))
    rho, _ = walk_post_selection(out)
    canon = circuit.singlet_frame(qmath.check_density(rho))
    s, rd = circuit.singlet().density().matrix, noise.RHO_DIST
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
    """Two-photon Fock states as stacks of creation tensors: ``pair_tensors`` and ``evolve``."""

    def test_tensor_round_trip_with_bunching(self):
        i = photonic.mode_index("2", "V", 0)
        j = photonic.mode_index("3", "V", 0)
        eye = np.eye(photonic.N_MODES)
        # a_i^dag (0.6 a_i^dag + 0.8 a_j^dag): t_ii = 0.6 and t_ij = t_ji = 0.4, so
        # |2>_i carries the sqrt(2) bosonic factor and the norm is 0.72 + 0.64.
        (t,) = pair(eye[i], 0.6 * eye[i] + 0.8 * eye[j])
        n = np.sqrt(1.36)
        assert np.array_equal(t, t.T)
        assert t[i, j] == pytest.approx(0.4 / n)
        assert fock_terms(t) == pytest.approx({(i, i): np.sqrt(2) * 0.6 / n, (i, j): 0.8 / n})
        assert sum(abs(z) ** 2 for z in fock_terms(t).values()) == pytest.approx(1.0)

    def test_wrong_tensor_shape_rejected(self):
        net = photonic.build_cz_network()
        for t in (np.zeros((1, 4, 4)), np.eye(photonic.N_MODES) / np.sqrt(2 * photonic.N_MODES)):
            with pytest.raises(photonic.PhotonicError, match="must be"):
                photonic.evolve(t, net)

    def test_zero_amplitude_vector_rejected(self):
        v = photonic.single_photon("2", "V")
        for scale in (0.0, np.nan):  # a NaN vector is rejected too
            with pytest.raises(photonic.PhotonicError, match="cancel"):
                photonic.pair_tensors(np.stack([v, v]), np.stack([v, scale * v]))

    def test_product_state_same_mode_gives_doubly_occupied(self):
        v = photonic.single_photon("2", "V")
        i = photonic.mode_index("2", "V", 0)
        assert fock_terms(pair(v, v)[0]) == pytest.approx({(i, i): 1.0})

    def test_product_state_orthogonal_modes(self):
        (t,) = pair(photonic.single_photon("1", "V"), photonic.single_photon("4", "V"))
        assert 2 * np.sum(np.abs(t) ** 2) == pytest.approx(1.0)
        assert len(fock_terms(t)) == 1

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_evolution_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (np.stack([random_photon(rng) for _ in range(3)]) for _ in range(2))
        out = photonic.evolve(photonic.pair_tensors(a, b), photonic.build_full_network())
        assert out.shape == (3, photonic.N_MODES, photonic.N_MODES)
        for t in out:
            assert np.array_equal(t, t.T)
            assert sum(abs(z) ** 2 for z in fock_terms(t).values()) == pytest.approx(1.0, abs=1e-10)

    def test_a_stack_evolves_as_its_members_alone(self):
        rng = np.random.default_rng(41)
        a, b = (np.stack([random_photon(rng) for _ in range(5)]) for _ in range(2))
        net = photonic.build_full_network(photonic.EXPERIMENTAL_BS)
        stacked = photonic.evolve(photonic.pair_tensors(a, b), net)
        for k in range(5):
            alone = photonic.evolve(pair(a[k], b[k]), net)[0]
            np.testing.assert_allclose(stacked[k], alone, rtol=0, atol=1e-15)

    def test_unnormalized_input_rejected(self):
        v = photonic.single_photon("1", "V")
        # Amplitude 0.5 on |2>_i has norm 0.25; a NaN member has a NaN norm.
        for scale in (0.5, np.nan):
            t = np.concatenate([pair(v, v), scale * pair(v, v)])
            with pytest.raises(photonic.PhotonicError, match="not a normalized"):
                photonic.evolve(t, photonic.build_cz_network())

    def test_output_amplitudes_are_permanents(self):
        net = photonic.build_full_network(photonic.EXPERIMENTAL_BS)
        # a_i^dag -> sum_r (U^dag)_ir b_r^dag: a single photon entering mode i
        # leaves in mode r with amplitude m[r, i].
        m = net.conj()
        n = photonic.N_MODES
        eye = np.eye(n)
        i, j = np.triu_indices(n, 1)
        out = photonic.evolve(photonic.pair_tensors(eye[i], eye[j]), net)
        for k in range(len(i)):
            # perm[[m_ri, m_rj], [m_si, m_sj]] off the diagonal, sqrt(2) m_ri m_rj on it.
            expect = np.outer(m[:, i[k]], m[:, j[k]])
            expect = expect + expect.T
            np.fill_diagonal(expect, np.sqrt(2) * m[:, i[k]] * m[:, j[k]])
            got = np.zeros((n, n), dtype=complex)
            for (r, s), amp in fock_terms(out[k]).items():
                got[r, s] = amp
            assert np.max(np.abs(got - np.triu(expect))) < 1e-12


class TestNetworks:
    def test_coupler_unitary(self):
        u = photonic.coupler_unitary(1 / 3)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        assert u[0, 0] == pytest.approx(1j / np.sqrt(3))
        assert u[0, 1] == pytest.approx(np.sqrt(2 / 3))

    def test_bad_reflectivity(self):
        with pytest.raises(qmath.OutOfRange):
            photonic.coupler_unitary(1.5)
        with pytest.raises(qmath.OutOfRange):
            photonic.BsParams(R_H=-0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(1 / 3, 1 / 3)  # the ideal preset
    @example(0.329, 0.337)  # the experimental preset
    @settings(max_examples=25, deadline=None)
    def test_networks_equal_the_per_mode_reference(self, r_h, r_v):
        bs = photonic.BsParams(r_h, r_v)
        assert np.array_equal(photonic.build_cz_network(bs), reference_cz_unitary(bs))
        assert np.array_equal(photonic.build_full_network(bs), reference_full_unitary(bs))

    def test_networks_are_cached_and_read_only(self):
        for build in (photonic.build_cz_network, photonic.build_full_network):
            net = build(photonic.EXPERIMENTAL_BS)
            assert build(photonic.BsParams(0.329, 0.337)) is net
            with pytest.raises(ValueError):
                net[0, 0] = 0.0

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(photonic.PhotonicError):
            photonic._network(2 * np.eye(12))

    def test_all_networks_unitary(self):
        for net in (
            photonic.build_cz_network(),
            photonic.build_full_network(),
            photonic.build_full_network(photonic.EXPERIMENTAL_BS),
        ):
            assert net.shape == (photonic.N_MODES, photonic.N_MODES)
            assert np.allclose(net @ net.conj().T, np.eye(photonic.N_MODES), atol=1e-12)


class TestCzGate:
    def test_truth_table_signs(self):
        channel, _ = photonic.cz_channel(photonic.build_cz_network())
        amps = np.diagonal(channel)
        # Equal magnitude 1/3 on every branch, one branch with opposite sign.
        assert np.allclose(np.abs(amps), 1 / 3, atol=1e-12)
        signs = amps / amps[0]
        assert np.allclose(signs, [1, 1, 1, -1], atol=1e-12)

    def test_success_probability_one_ninth(self):
        _, probs = photonic.cz_channel(photonic.build_cz_network())
        assert np.allclose(probs, 1 / 9, atol=1e-12)

    def test_process_fidelity_ideal(self):
        channel, _ = photonic.cz_channel(photonic.build_cz_network())
        assert photonic.channel_fidelity_to_cz(channel) == pytest.approx(1.0, abs=1e-12)

    def test_process_fidelity_degrades_off_third(self):
        channel, _ = photonic.cz_channel(photonic.build_cz_network(photonic.BsParams(0.5, 0.5)))
        assert photonic.channel_fidelity_to_cz(channel) < 0.99


def count_evolutions(monkeypatch) -> list[int]:
    """Record the number of members of every ``photonic.evolve`` call."""
    members = []
    evolve = photonic.evolve
    monkeypatch.setattr(photonic, "evolve", lambda t, net: members.append(len(t)) or evolve(t, net))
    return members


class TestCommandCosts:
    def test_photonic_verify_evolves_six_states(self, tmp_path, monkeypatch):
        # One call for the four logical inputs of the CZ channel, one for the
        # two label components of the HOM endpoints.
        members = count_evolutions(monkeypatch)
        assert cli.main(["--out", str(tmp_path), "photonic-verify"]) == 0
        assert members == [4, 2]

    def test_hom_scan_evolutions_do_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        members = count_evolutions(monkeypatch)
        counts = []
        for n in (3, 100):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"gamma_grid": [k / (n - 1) for k in range(n)]}))
            members.clear()
            assert cli.main(["--config", str(cfg), "--out", str(tmp_path / f"out{n}"),
                             "hom-scan"]) == 0
            counts.append(list(members))
        # The two label components of the dip (its grid and the visibility's
        # endpoints) in one call, and those of the pipeline in another.
        assert counts == [[2, 2], [2, 2]]

    def test_hom_scan_builds_each_network_once(self, tmp_path, monkeypatch):
        built = []
        network = photonic._network
        monkeypatch.setattr(photonic, "_network", lambda u12: built.append(1) or network(u12))
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
        with pytest.raises(qmath.OutOfRange):
            photonic.hom_coincidence([1.5])


class TestGridKernels:
    GRID = np.unique(np.concatenate([[0.0, 1.0], np.random.default_rng(37).uniform(0, 1, 35)]))

    @pytest.mark.parametrize("bs", [photonic.IDEAL_BS, photonic.EXPERIMENTAL_BS,
                                    photonic.BsParams(0.3, 0.45)], ids=str)
    def test_kernels_match_a_per_point_reference(self, bs):
        assert len(self.GRID) == 37
        probs, weights, visibility = photonic.hom_scan(self.GRID, bs)
        assert visibility == photonic.hom_visibility(bs)
        rho, mass = photonic.simulate_pipeline_grid(self.GRID, bs)
        for k, gamma in enumerate(self.GRID):
            p, v, r = reference_hom_point(float(gamma), bs)
            assert abs(probs[k] - p) < 1e-12
            assert abs(weights[k] - v) < 1e-12
            assert np.max(np.abs(rho[k] - r)) < 1e-12
            # A point of the grid is the grid of that point alone.
            one, one_mass = photonic.simulate_pipeline_grid([gamma], bs)
            assert np.max(np.abs(one[0] - rho[k])) < 1e-15 and abs(one_mass[0] - mass[k]) < 1e-15


class TestPipeline:
    def test_ideal_pipeline_state_and_probability(self):
        (rho,), (prob,) = photonic.simulate_pipeline_grid([1.0])
        assert prob == pytest.approx(1 / 9, abs=1e-12)
        v = circuit.ideal_spin_state(np.pi)
        assert np.vdot(v, rho @ v).real == pytest.approx(1.0, abs=1e-12)

    def test_fully_distinguishable_pipeline(self):
        rho, _ = photonic.simulate_pipeline_grid([0.0])
        diff = circuit.singlet_frame(rho[0]) - noise.RHO_DIST
        assert np.max(np.abs(diff)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_gamma_family_matches_two_state_mixture(self, gamma):
        rho, _ = photonic.simulate_pipeline_grid([gamma])
        canon = circuit.singlet_frame(rho)
        (v,) = photonic.fit_visibility_weights(canon)
        # The trace distance to the best member of the family.
        delta = canon[0] - (v * noise.SINGLET + (1 - v) * noise.RHO_DIST)
        assert 0.5 * np.sum(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2))) < 1e-9
        assert 0.0 <= v <= 1.0 + 1e-12

    def test_visibility_weight_endpoints(self):
        rho, _ = photonic.simulate_pipeline_grid([0.0, 1.0])
        v = photonic.fit_visibility_weights(circuit.singlet_frame(rho))
        np.testing.assert_allclose(v, [0.0, 1.0], rtol=0, atol=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_post_selection_matches_a_walk_over_fock_terms(self, seed):
        rng = np.random.default_rng(seed)
        t = photonic.evolve(pair(random_photon(rng), random_photon(rng)),
                            photonic.build_full_network(photonic.EXPERIMENTAL_BS))
        expect, mass = walk_post_selection(t[0])
        rho, got_mass = photonic.post_select_coincidence(t)
        assert got_mass[0] == pytest.approx(mass, abs=1e-12)
        assert np.max(np.abs(rho[0] - expect)) < 1e-12

    def test_empty_post_selection_raises(self):
        t = pair(photonic.single_photon("out1", "V"), photonic.single_photon("out4", "V"))
        with pytest.raises(photonic.PhotonicError, match="post-selected mass below"):
            photonic.post_select_coincidence(t)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_tensors_raise(self, entry):
        # NaN and inf pass the mass and norm tests; the density-matrix check of the
        # reduced states catches them, and a norm that overflows to inf.
        t = np.full((1, photonic.N_MODES, photonic.N_MODES), entry)
        with np.errstate(all="ignore"), pytest.raises(qmath.QmathError):
            photonic.post_select_coincidence(t)


def delayed_singlet(eta: float) -> np.ndarray:
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
    return qmath.check_density(np.einsum("abl,cdl->abcd", psi, psi.conj()).reshape(4, 4))


class TestDelayedSinglet:
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_dephasing_channel(self, eta):
        a = delayed_singlet(eta)
        b = noise.dephased_singlets(eta)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_bad_eta(self):
        # The optical reference and the channel it checks reject eta alike.
        for model in (delayed_singlet, noise.dephased_singlets):
            with pytest.raises(qmath.OutOfRange):
                model(-0.1)
