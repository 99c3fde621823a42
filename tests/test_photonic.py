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


def reference_cz_unitary(R) -> np.ndarray:
    u = np.eye(photonic.N_MODES, dtype=complex)
    block = photonic.coupler_unitary(R)
    for pol in photonic.POLS:
        for label in photonic.LABELS:
            for pa, pb in (("out1", "1"), ("2", "3"), ("4", "out4")):
                i, j = photonic.mode_index(pa, pol, label), photonic.mode_index(pb, pol, label)
                u[np.ix_([i, j], [i, j])] = block
    return u


def reference_wave_plates() -> np.ndarray:
    return _ref_swaps([((p, "H", l), (p, "V", l)) for p in ("2", "3") for l in photonic.LABELS])


def reference_coupler_entry() -> np.ndarray:
    """The beam displacers, then the half-wave plates: the full network up to the couplers."""
    labels = photonic.LABELS
    bd1 = _ref_swaps([(("out1", "V", l), ("1", "V", l)) for l in labels]
                     + [(("out1", "H", l), ("2", "H", l)) for l in labels])
    bd2 = _ref_swaps([(("out4", "H", l), ("3", "H", l)) for l in labels]
                     + [(("out4", "V", l), ("4", "V", l)) for l in labels])
    return reference_wave_plates() @ (bd2 @ bd1)


def reference_full_unitary(R) -> np.ndarray:
    return reference_wave_plates() @ reference_cz_unitary(R) @ reference_coupler_entry()


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


def evolved_pairs(photon_a: np.ndarray, photon_b: np.ndarray, net: np.ndarray) -> np.ndarray:
    """The (K, N, N) stack of the pairs of two (K, N) photon stacks after ``net``."""
    return photonic.pair_tensors(*photonic.evolve(np.stack([photon_a, photon_b]), net))


def reference_evolve(t: np.ndarray, net: np.ndarray) -> np.ndarray:
    """A (K, N, N) stack of pair tensors pushed through ``net`` as a whole: the tensor
    sandwich t -> A^T t A with A = U^dag, symmetrized."""
    a = net.conj().T
    out = a.T @ t @ a
    return (out + out.swapaxes(1, 2)) / 2


def raw_pair_norm(photon_a: np.ndarray, photon_b: np.ndarray) -> np.ndarray:
    """(K,) norms of the pair tensors (a b^T + b a^T) / 2 of two (K, N) stacks, before
    ``pair_tensors`` normalizes them."""
    t = photon_a[:, :, None] * photon_b[:, None, :]
    return 2 * np.sum(np.abs((t + t.swapaxes(1, 2)) / 2) ** 2, axis=(1, 2))


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


# Reference grid kernels: the full-tensor way, which combines the two label
# components over all 24 x 24 modes by one tensordot and then masks the
# combined tensors.
def full_modes(paths) -> np.ndarray:
    return np.array([photonic.mode_index(p, pol, l)
                     for p in paths for pol in photonic.POLS for l in photonic.LABELS])


def full_mix(t: np.ndarray, overlaps) -> np.ndarray:
    g = np.asarray(overlaps, dtype=float)
    return np.tensordot(np.stack([g, np.sqrt(np.maximum(0.0, 1.0 - g * g))], axis=1), t, axes=1)


def full_pair_mass(t: np.ndarray, paths_a, paths_b) -> np.ndarray:
    return 4 * np.sum(np.abs(t[:, full_modes(paths_a)[:, None], full_modes(paths_b)]) ** 2,
                      axis=(-2, -1))


def full_post_selection(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    decode = [np.array([[photonic.mode_index(paths[q], "VH"[q], l) for l in photonic.LABELS]
                        for q in (0, 1)]) for paths in (("1", "2"), ("4", "3"))]
    psi = 2 * t[:, decode[0][:, :, None, None], decode[1][None, None, :, :]]
    vec = psi.reshape(len(t), 16)
    vec = vec / np.sqrt(np.sum(np.abs(vec) ** 2, axis=-1))[:, None]
    full = vec[:, :, None] * vec[:, None, :].conj()
    rho = np.einsum("gakblckdl->gabcd", full.reshape(len(t), *(2,) * 8)).reshape(len(t), 4, 4)
    return rho, full_pair_mass(t, ("1", "2"), ("4", "3"))


def full_grid_kernels(grid, R):
    """(dip, rho, mass) of ``grid``: the dip at the grid and at overlaps 0 and 1, and the
    pipeline's post-selected states and masses, each from its full combined tensors.

    The pairs are evolved as the package evolves them, photons first: this is the
    reference for combining and slicing, compared bit for bit.  The tensor sandwich
    gives the same pairs only within an ulp (``reference_hom_point`` uses it)."""
    sp = photonic.single_photon
    dip = evolved_pairs(np.stack([sp("2", "V")] * 2),
                        np.stack([sp("3", "V", l) for l in photonic.LABELS]),
                        photonic.build_cz_network(R))
    photon_a = (sp("out1", "H") + sp("out1", "V")) / np.sqrt(2)
    photon_b = np.stack([sp("out4", "H", l) + sp("out4", "V", l)
                         for l in photonic.LABELS]) / np.sqrt(2)
    pipe = evolved_pairs(np.stack([photon_a] * 2), photon_b, photonic.build_full_network(R))
    probs = full_pair_mass(full_mix(dip, [*grid, 0.0, 1.0]), ("2",), ("3",))
    return (probs, *full_post_selection(full_mix(pipe, grid)))


def reference_hom_point(gamma: float, R) -> tuple[float, float, np.ndarray]:
    """(P, v, rho) at one overlap, each from its own photon pair evolved on its own."""
    d = np.sqrt(1.0 - gamma * gamma)
    sp = photonic.single_photon

    def second(path, pols):
        return sum(gamma * sp(path, pol, 0) + d * sp(path, pol, 1) for pol in pols)

    (dip,) = reference_evolve(pair(sp("2", "V", 0), second("3", "V")),
                              photonic.build_cz_network(R))
    p = sum(abs(amp) ** 2 for (i, j), amp in fock_terms(dip).items()
            if {MODES[i][0], MODES[j][0]} == {"2", "3"})
    photon_a = (sp("out1", "H", 0) + sp("out1", "V", 0)) / np.sqrt(2)
    (out,) = reference_evolve(pair(photon_a, second("out4", "HV") / np.sqrt(2)),
                              photonic.build_full_network(R))
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

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pair_norm_of_unit_photons_is_at_least_one(self, seed):
        # Why pair_tensors divides unchecked: for unit photons a and b the pair's norm is
        # |a|^2 |b|^2 + |<b|a>|^2, from 1 (orthogonal photons) to 2 (the same photon).
        rng = np.random.default_rng(seed)
        a, b = (np.stack([random_photon(rng) for _ in range(3)]) for _ in range(2))
        b[0] = a[0]
        b[1] -= np.vdot(a[1], b[1]) * a[1]
        b[1] /= np.linalg.norm(b[1])
        norms = raw_pair_norm(a, b)
        overlap = np.abs(np.einsum("kn,kn->k", b.conj(), a)) ** 2
        np.testing.assert_allclose(norms, 1 + overlap, rtol=0, atol=1e-12)
        np.testing.assert_allclose(norms[:2], [2.0, 1.0], rtol=0, atol=1e-12)

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
        photons = photonic.evolve(np.stack([a, b]), photonic.build_full_network())
        assert photons.shape == (2, 3, photonic.N_MODES)
        # The network keeps each photon's norm and the overlap of the two, so the pair's
        # norm before pair_tensors normalizes it is the input pair's.
        np.testing.assert_allclose(np.linalg.norm(photons, axis=-1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(raw_pair_norm(*photons), raw_pair_norm(a, b), rtol=0, atol=1e-12)
        out = photonic.pair_tensors(*photons)
        assert out.shape == (3, photonic.N_MODES, photonic.N_MODES)
        for t in out:
            assert np.array_equal(t, t.T)
            assert sum(abs(z) ** 2 for z in fock_terms(t).values()) == pytest.approx(1.0, abs=1e-10)

    def test_a_stack_evolves_as_its_members_alone(self):
        rng = np.random.default_rng(41)
        a, b = (np.stack([random_photon(rng) for _ in range(5)]) for _ in range(2))
        net = photonic.build_full_network(photonic.BS_PRESETS["experimental"])
        stacked = evolved_pairs(a, b, net)
        for k in range(5):
            assert np.array_equal(stacked[k], evolved_pairs(a[k:k + 1], b[k:k + 1], net)[0])

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))
    @example(0, 1 / 3)
    @example(0, 0.337)
    @settings(max_examples=20, deadline=None)
    def test_evolving_photons_equals_evolving_their_pair_tensor(self, seed, R):
        # The pair tensor of the evolved photons is the evolved pair tensor.
        rng = np.random.default_rng(seed)
        a, b = (np.stack([random_photon(rng) for _ in range(3)]) for _ in range(2))
        for net in (photonic.build_cz_network(R), photonic.build_full_network(R)):
            expect = reference_evolve(photonic.pair_tensors(a, b), net)
            assert np.max(np.abs(evolved_pairs(a, b, net) - expect)) <= 1e-15

    def test_output_amplitudes_are_permanents(self):
        net = photonic.build_full_network(photonic.BS_PRESETS["experimental"])
        # a_i^dag -> sum_r (U^dag)_ir b_r^dag: a single photon entering mode i
        # leaves in mode r with amplitude m[r, i].
        m = net.conj()
        n = photonic.N_MODES
        eye = np.eye(n)
        i, j = np.triu_indices(n, 1)
        out = evolved_pairs(eye[i], eye[j], net)
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
            photonic.build_cz_network(-0.1)

    @given(st.floats(0.0, 1.0))
    @example(1 / 3)  # the ideal preset
    @example(0.337)  # the experimental preset
    @settings(max_examples=25, deadline=None)
    def test_networks_equal_the_per_mode_reference(self, R):
        eye = np.eye(photonic.N_MODES)
        for build, reference in ((photonic.build_cz_network, reference_cz_unitary),
                                 (photonic.build_full_network, reference_full_unitary)):
            net = build(R)
            assert np.array_equal(net, reference(R))
            # Unitary by construction: nothing checks it at run time.
            assert np.max(np.abs(net @ net.conj().T - eye)) <= 1e-12

    def test_networks_are_cached_and_read_only(self):
        for build in (photonic.build_cz_network, photonic.build_full_network):
            net = build(photonic.BS_PRESETS["experimental"])
            assert build(0.337) is net
            with pytest.raises(ValueError):
                net[0, 0] = 0.0

    def test_all_networks_unitary(self):
        for net in (
            photonic.build_cz_network(),
            photonic.build_full_network(),
            photonic.build_full_network(photonic.BS_PRESETS["experimental"]),
        ):
            assert net.shape == (photonic.N_MODES, photonic.N_MODES)
            assert np.allclose(net @ net.conj().T, np.eye(photonic.N_MODES), atol=1e-12)


class TestPolarizationAtTheCouplers:
    def test_every_evolved_input_enters_the_couplers_v_polarized(self, monkeypatch):
        # Why one reflectivity serves both polarizations: each input the package
        # evolves holds exactly zero amplitude in every H mode where it enters the
        # couplers, so no H reflectivity could reach a number.
        calls = []
        evolve = photonic.evolve
        monkeypatch.setattr(photonic, "evolve",
                            lambda photons, net: calls.append((photons, net))
                            or evolve(photons, net))
        photonic.cz_channel(photonic.build_cz_network())  # the four logical inputs
        photonic.hom_coincidence([0.5])  # the dip's two label components
        photonic.simulate_pipeline_grid([0.5])  # the pipeline's two label components
        assert [photons.shape for photons, _ in calls] == [(2, 4, photonic.N_MODES),
                                                           (2, 2, photonic.N_MODES),
                                                           (2, 2, photonic.N_MODES)]
        assert np.array_equal(calls[2][1], reference_full_unitary(1 / 3))
        # The pipeline's photons meet the couplers after the displacers and wave plates.
        entering = [calls[0][0], calls[1][0], evolve(calls[2][0], reference_coupler_entry())]
        h = [photonic.mode_index(p, "H", l) for p in photonic.PATHS for l in photonic.LABELS]
        for photons in entering:
            assert photons.any() and not photons[..., h].any()


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
        channel, _ = photonic.cz_channel(photonic.build_cz_network(0.5))
        assert photonic.channel_fidelity_to_cz(channel) < 0.99

    @given(st.floats(1e-3, 1 - 1e-3))
    @example(1 / 3)  # the ideal network, whose unclipped ratio reads 1.0000000000000002
    @example(0.337)
    def test_process_fidelity_is_at_most_one(self, r):
        channel, _ = photonic.cz_channel(photonic.build_cz_network(r))
        assert 0.0 <= photonic.channel_fidelity_to_cz(channel) <= 1.0


def count_evolutions(monkeypatch) -> list[int]:
    """Record the number of members of every ``photonic.evolve`` call."""
    members = []
    evolve = photonic.evolve
    monkeypatch.setattr(photonic, "evolve", lambda photons, net:
                        members.append(photons.shape[-2]) or evolve(photons, net))
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

    def test_hom_scan_mixes_only_coincidence_blocks(self, tmp_path, monkeypatch):
        # The dip's (4, 4) blocks of paths 2 x 3 and the pipeline's (8, 8) blocks of
        # paths {1, 2} x {4, 3}; never a full (2, 24, 24) stack.
        shapes = []
        mix = photonic._mix_labels
        monkeypatch.setattr(photonic, "_mix_labels",
                            lambda t, *args: shapes.append(t.shape) or mix(t, *args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_grid": [k / 99 for k in range(100)]}))
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "hom-scan"]) == 0
        assert shapes == [(2, 4, 4), (2, 8, 8)]

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
        assert photonic.hom_visibility(0.5) == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("R", [1 / 3, 0.337, 0.45], ids=str)
    def test_kernels_match_a_per_point_reference(self, R):
        assert len(self.GRID) == 37
        probs, weights, visibility = photonic.hom_scan(self.GRID, R)
        assert visibility == photonic.hom_visibility(R)
        rho, mass = photonic.simulate_pipeline_grid(self.GRID, R)
        for k, gamma in enumerate(self.GRID):
            p, v, r = reference_hom_point(float(gamma), R)
            assert abs(probs[k] - p) < 1e-12
            assert abs(weights[k] - v) < 1e-12
            assert np.max(np.abs(rho[k] - r)) < 1e-12
            # A point of the grid is the grid of that point alone.
            one, one_mass = photonic.simulate_pipeline_grid([gamma], R)
            assert np.max(np.abs(one[0] - rho[k])) < 1e-15 and abs(one_mass[0] - mass[k]) < 1e-15


    @pytest.mark.parametrize("grid", [GRID, []], ids=["grid", "empty"])
    @pytest.mark.parametrize("R", [1 / 3, 0.337, 0.45], ids=str)
    def test_block_kernels_equal_the_full_tensor_kernels_bit_for_bit(self, R, grid):
        probs, rho, mass = full_grid_kernels(grid, R)
        assert np.array_equal(photonic.hom_coincidence([*grid, 0.0, 1.0], R), probs)
        got_rho, got_mass = photonic.simulate_pipeline_grid(grid, R)
        assert got_rho.shape == rho.shape == (len(grid), 4, 4)
        assert np.array_equal(got_rho, rho) and np.array_equal(got_mass, mass)
        dip, weights, visibility = photonic.hom_scan(grid, R)
        assert np.array_equal(dip, probs[:-2])
        assert np.array_equal(weights, photonic.fit_visibility_weights(circuit.singlet_frame(rho)))
        assert visibility == (probs[-2] - probs[-1]) / probs[-2]


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
        # At gamma = 0 the exact weight is 0, and rounding leaves either sign.
        assert -1e-12 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize("R", photonic.BS_PRESETS.values(), ids=photonic.BS_PRESETS)
    def test_visibility_weights_lie_in_the_unit_interval(self, R):
        # Off R = 1/3 the states leave the two-state family (trace distance about 0.01
        # at the experimental preset), but each fitted weight stays in [0, 1] up to
        # rounding; at gamma = 0, where it is exactly 0, rounding leaves either sign.
        rho, _ = photonic.simulate_pipeline_grid([0.0, 0.3, 0.6, 0.9, 1.0], R)
        v = photonic.fit_visibility_weights(circuit.singlet_frame(rho))
        assert np.all((-1e-12 <= v) & (v <= 1.0 + 1e-12))

    def test_visibility_weight_endpoints(self):
        rho, _ = photonic.simulate_pipeline_grid([0.0, 1.0])
        v = photonic.fit_visibility_weights(circuit.singlet_frame(rho))
        np.testing.assert_allclose(v, [0.0, 1.0], rtol=0, atol=1e-9)

    @given(st.lists(st.floats(0.0, 1.0), max_size=6), st.floats(0.0, 1.0))
    @example([0.0, 1 / 3, 0.337, 2 / 7, 1.0], 0.0)
    @example([0.0, 1 / 3, 0.337, 2 / 7, 1.0], 1.0)
    @example([0.0, 1 / 3, 0.337, 2 / 7, 1.0], 1 / 3)
    @example([0.0, 1 / 3, 0.337, 2 / 7, 1.0], 0.337)
    @example([0.0, 1 / 3, 0.337, 2 / 7, 1.0], 2 / 7)  # the least mass, 3/28, at gamma = 1
    @settings(max_examples=40, deadline=None)
    def test_post_selected_states_are_density_matrices(self, gammas, R):
        # Built unchecked: each state is a partial trace of a unit vector's projector, and
        # post_select_coincidence normalizes it by a mass that no R or gamma in [0, 1]
        # brings below 3/28.
        rho, mass = photonic.simulate_pipeline_grid(gammas, R)
        assert np.all(np.isfinite(rho))
        assert qmath.check_density(rho).shape == (len(gammas), 4, 4)
        assert np.all((0.1 <= mass) & (mass <= 1.0 + 1e-12))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_post_selection_matches_a_walk_over_fock_terms(self, seed):
        rng = np.random.default_rng(seed)
        t = evolved_pairs(random_photon(rng)[None], random_photon(rng)[None],
                          photonic.build_full_network(photonic.BS_PRESETS["experimental"]))
        expect, mass = walk_post_selection(t[0])
        rho, got_mass = photonic.post_select_coincidence(photonic.coincidence_block(t))
        qmath.check_density(rho)
        assert got_mass[0] == pytest.approx(mass, abs=1e-12)
        assert np.max(np.abs(rho[0] - expect)) < 1e-12

    def test_post_selection_takes_coincidence_blocks(self):
        t = evolved_pairs(photonic.single_photon("out1", "V")[None],
                          photonic.single_photon("out4", "H")[None], photonic.build_full_network())
        assert photonic.coincidence_block(t).shape == (1, 8, 8)

    @pytest.mark.parametrize("R, mass", [(2 / 7, [9 / 49, 3 / 28]),
                                         (0.0, [0.25, 0.25]), (1.0, [1.0, 1.0])],
                             ids=["least", "R-0", "R-1"])
    def test_post_selected_mass_at_the_least_and_the_ends(self, R, mass):
        # The bound post_select_coincidence divides by unchecked: the mass is least,
        # 3/28, at R = 2/7 and gamma = 1; at R = 0 and R = 1 no gamma moves it.
        got = photonic.simulate_pipeline_grid([0.5, 1.0], R)[1]
        np.testing.assert_allclose(got, mass, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_inputs_are_rejected_where_they_enter(self, entry):
        # The values whose tensors the deleted mass checks caught stop at check_unit, as
        # the reflectivity or as an overlap, before any tensor is built.
        with pytest.raises(qmath.OutOfRange, match="^reflectivity = "):
            photonic.simulate_pipeline_grid([0.5], entry)
        with pytest.raises(qmath.OutOfRange, match="^gamma = "):
            photonic.simulate_pipeline_grid([0.5, entry], 1 / 3)


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
