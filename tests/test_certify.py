import contextlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmesim import certify, circuit, cli, noise, qmath

SINGLET = noise.SINGLET
COUNTS_HEADER = "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
MIXED = np.eye(4, dtype=complex) / 4
X, Y, Z = certify.AXES["X"], certify.AXES["Y"], certify.AXES["Z"]
# The 16 pairs of tetrahedral axes: informationally complete, and no Pauli pair.
_TET = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
TETRAHEDRAL_PAIRS = np.array([[a, b] for a in _TET for b in _TET])
WERNER = 0.5 * SINGLET + 0.5 * MIXED  # full rank, so its fits stay short


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unit vector of C^d."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure_state(rng: np.random.Generator) -> qmath.PureState:
    """Haar-random two-qubit pure state."""
    return qmath.PureState(random_unit_vector(rng, 4))


def random_separable_state(rng: np.random.Generator, n_terms: int = 4) -> np.ndarray:
    """Convex mixture of random product states (separable by construction)."""
    weights = rng.dirichlet(np.ones(n_terms))
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = random_unit_vector(rng, 2)
        b = random_unit_vector(rng, 2)
        v = np.kron(a, b)
        m += w * np.outer(v, v.conj())
    return qmath.check_density(m)


def simulated(rho: np.ndarray, bases, n_per_setting: int, seed: int) -> certify.Counts:
    """The dataset of one ``simulate_counts_batch`` draw of the (4, 4) state ``rho``."""
    counts = certify.simulate_counts_batch(rho[None], bases, n_per_setting, [seed])
    return certify.Counts(bases, counts[0])


def fit_one(data: certify.Counts, target=SINGLET) -> dict:
    """Member 0 of the one-member ``fit`` of ``data``."""
    return {key: val[0] for key, val in certify.fit(data.bases, data.n[None], target).items()}


class TestSettings:
    def test_axis_setting_observable(self):
        # The outcome signs of the projectors weight them into a.sigma x b.sigma.
        table = certify.projector_table([[Z, Z]])[0]
        obs = np.tensordot([1, -1, -1, 1], table, axes=1)
        assert np.allclose(obs, np.kron(qmath.SIGMA_Z, qmath.SIGMA_Z))

    def test_projectors_resolve_identity(self):
        table = certify.projector_table([[X, Y]])[0]
        assert np.allclose(np.sum(table, axis=0), np.eye(4), atol=1e-14)

    # A counts file is checked by its reader, which names the file line of a bad setting.
    def test_non_unit_vector_rejected(self, tmp_path):
        p = tmp_path / "counts.csv"
        p.write_text(f"{COUNTS_HEADER}1:1:0,Z,1,2,3,4\n")
        with pytest.raises(cli.ParseError, match=":2: axis a is not a finite unit Bloch vector"):
            cli.load_counts_csv(str(p))

    @pytest.mark.parametrize("axis", [("nan:0:1", [np.nan, 0.0, 1.0]),
                                      ("inf:0:0", [np.inf, 0.0, 0.0]),
                                      ("1e200:0:0", [1e200, 0.0, 0.0]),
                                      ("0:0:1.00000000001", [0.0, 0.0, 1.0 + 1e-11])])
    def test_non_finite_or_off_unit_axis_names_its_setting(self, tmp_path, axis):
        token, vector = axis
        p = tmp_path / "counts.csv"
        p.write_text(f"{COUNTS_HEADER}X,Z,1,2,3,4\nZ,{token},1,2,3,4\n")
        with pytest.raises(cli.ParseError) as exc:
            cli.load_counts_csv(str(p))
        assert str(exc.value) == f"{p}:3: axis b is not a finite unit Bloch vector: {vector}"

    def test_pauli_settings_complete(self):
        assert certify.PAULI_SETTINGS.shape == (9, 2, 3)
        assert not certify.PAULI_SETTINGS.flags.writeable
        assert np.array_equal(certify.PAULI_SETTINGS, [[certify.AXES[a], certify.AXES[b]]
                                                       for a in "XYZ" for b in "XYZ"])


class TestCountsValue:
    def test_fields_are_read_only_copies(self):
        bases = np.array(certify.PAULI_SETTINGS)
        n = np.ones((9, 4), dtype=int)
        data = certify.Counts(bases, n)
        bases[0, 0], n[0] = Y, 7
        assert np.array_equal(data.bases, certify.PAULI_SETTINGS) and (data.n == 1).all()
        assert len(data) == 9 and data.n.dtype == np.int64
        for arr in (data.bases, data.n):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_negative_count_names_its_setting(self, tmp_path):
        p = tmp_path / "counts.csv"
        p.write_text(f"{COUNTS_HEADER}X,X,1,1,1,1\nX,Y,1,1,1,1\nX,Z,1,-1,1,1\n")
        with pytest.raises(cli.ParseError) as exc:
            cli.load_counts_csv(str(p))
        assert str(exc.value) == f"{p}:4: negative count in [1, -1, 1, 1]"

    def test_rows_must_match_settings(self):
        with pytest.raises(certify.CertifyError, match="8 rows of counts for 9 settings"):
            certify.Counts(certify.PAULI_SETTINGS, np.ones((8, 4), dtype=int))


class TestCorrelatorsAndWitness:
    def test_singlet_correlations(self):
        (t,) = certify._correlations(SINGLET[None])
        assert np.allclose(t, -np.eye(3), atol=1e-12)

    def test_witness_values(self):
        w = certify.derived_batch(np.stack([SINGLET, noise.RHO_MIX, noise.RHO_DIST]))["witness"]
        assert np.allclose(w, [-1.0, 1.0, 1.0], rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_witness_lower_bound(self, seed):
        rho = qmath.check_density(certify.random_density_matrices(np.random.default_rng(seed), 1))
        assert certify.derived_batch(rho)["witness"][0] >= -1.0 - 1e-12


def chsh_at(rhos: np.ndarray, settings_: np.ndarray) -> np.ndarray:
    """Reference CHSH |E(A0 B0) + E(A0 B1) + E(A1 B0) - E(A1 B1)| of each state at its
    (4, 2, 3) settings, with E(a, b) = tr(rho a.sigma x b.sigma)."""
    out = []
    for rho, pairs in zip(rhos, settings_):
        e = [np.trace(rho @ np.kron(*(np.tensordot(v, certify._PAULI_VEC, axes=1) for v in p))).real
             for p in pairs]
        out.append(abs(e[0] + e[1] + e[2] - e[3]))
    return np.array(out)


def svd_settings(rhos: np.ndarray) -> np.ndarray:
    """(B, 4, 2, 3) settings reaching the maximal CHSH value of each state: Alice
    along the top two left singular vectors a_i of the correlation matrix T, Bob
    along (s_1 v_1 +- s_2 v_2) / |.|, so that E(a_i, v_j) = s_i delta_ij."""
    u, sv, vt = np.linalg.svd(certify._correlations(rhos))
    cs = sv[:, :2, None] / np.hypot(sv[:, 0], sv[:, 1])[:, None, None]
    a0, a1 = u[:, :, 0], u[:, :, 1]
    b0, b1 = cs[:, 0] * vt[:, 0] + cs[:, 1] * vt[:, 1], cs[:, 0] * vt[:, 0] - cs[:, 1] * vt[:, 1]
    return np.stack([a0, b0, a0, b1, a1, b0, a1, b1], axis=1).reshape(-1, 4, 2, 3)


class TestChsh:
    def test_singlet_fixed_settings(self):
        s = certify.derived_batch(SINGLET[None])["chsh_fixed"][0]
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_chsh_max_matches_settings(self):
        rhos = np.stack([SINGLET, noise.dephased_singlets(0.4), noise.baseline_states(0.2)])
        values = certify.derived_batch(np.concatenate([rhos, MIXED[None]]))["chsh_max"]
        np.testing.assert_allclose(chsh_at(rhos, svd_settings(rhos)), values[:-1],
                                   rtol=0, atol=1e-9)
        assert values[-1] == 0.0  # a zero correlation matrix

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_tsirelson_and_ordering(self, seed):
        q = certify.derived_batch(certify.random_density_matrices(np.random.default_rng(seed), 1))
        assert q["chsh_fixed"][0] <= q["chsh_max"][0] + 1e-9
        assert q["chsh_max"][0] <= 2 * np.sqrt(2) + 1e-9

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_separable_states_respect_classical_bound(self, seed):
        rho = random_separable_state(np.random.default_rng(seed))
        assert certify.derived_batch(rho[None])["chsh_max"][0] <= 2.0 + 1e-9

    def test_singlet_optimal_settings_are_one_read_only_constant(self):
        settings_ = certify.SINGLET_OPTIMAL_SETTINGS
        assert settings_.shape == (4, 2, 3) and not settings_.flags.writeable
        b0, b1 = -(Z + X) / np.sqrt(2), (X - Z) / np.sqrt(2)
        assert np.array_equal(settings_, [[Z, b0], [Z, b1], [X, b0], [X, b1]])

    def test_stacked_chsh_fixed_is_at_the_singlet_optimal_settings(self):
        states = np.concatenate([certify.random_density_matrices(np.random.default_rng(19), 20),
                                 SINGLET[None]])
        stacked = certify.derived_batch(states)["chsh_fixed"]
        reference = chsh_at(states, [certify.SINGLET_OPTIMAL_SETTINGS] * len(states))
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)
        assert stacked[-1] == pytest.approx(2 * np.sqrt(2), abs=1e-12)


class TestCounts:
    def test_simulation_is_deterministic(self):
        a, b = (certify.simulate_counts_batch(SINGLET[None], certify.PAULI_SETTINGS, 1000, [7])
                for _ in range(2))
        assert a.shape == (1, 9, 4) and np.array_equal(a, b)

    def test_counts_track_probabilities(self):
        data = simulated(SINGLET, [[Z, Z]], 100_000, 1)
        f = data.n[0] / data.n[0].sum()
        p = _trace(SINGLET @ certify.projector_table([[Z, Z]])[0])
        assert np.allclose(f, p, atol=0.01)

    def test_bad_count_target(self):
        with pytest.raises(certify.CertifyError):
            certify.simulate_counts_batch(SINGLET[None], certify.PAULI_SETTINGS, 0, [1])

    @pytest.mark.parametrize("bad", ["nan", "inf", "doubled"])
    def test_non_unit_axis_is_rejected_at_every_entry(self, bad):
        # A doubled axis used to give counts from clipped non-probabilities, a NaN or
        # Inf one a numpy error from the Poisson sampler.
        bases = np.array(certify.PAULI_SETTINGS)
        if bad == "doubled":
            bases[4, 1] *= 2
        else:
            bases[4, 1, 0] = float(bad)
        data = certify.Counts(bases, np.full((9, 4), 25))
        for call in (lambda: certify.simulate_counts_batch(SINGLET[None], bases, 100, [1]),
                     lambda: certify.mle_batch(bases, data.n[None]),
                     lambda: certify.bootstrap(data, 10, 1)):
            with pytest.raises(certify.CertifyError, match="unit Bloch vectors"):
                call()


class TestTomography:
    def test_linear_inversion_missing_setting(self):
        # The rank test runs for the direct fits too, not only for the bootstrap.
        data = simulated(SINGLET, certify.PAULI_SETTINGS[:-1], 100, 1)
        for call in (lambda: certify._check_complete(certify.projector_table(data.bases)),
                     lambda: certify.fit(data.bases, data.n[None], SINGLET)):
            with pytest.raises(certify.CertifyError, match="not informationally complete"):
                call()

    def test_mle_recovers_mixed_truth(self):
        truth = noise.dephased_singlets(0.5)
        res = fit_one(simulated(truth, certify.PAULI_SETTINGS, 10_000, 11), truth)
        assert res["converged"]
        assert res["fidelity_to_target"] > 0.99

    def test_mle_monotone_likelihood_vs_linear(self):
        data = simulated(SINGLET, certify.PAULI_SETTINGS, 2000, 3)
        res = fit_one(data)

        def ll(rho):
            out = 0.0
            for pair, n in zip(data.bases, data.n):
                p = np.array([np.trace(rho @ pi).real for pi in _kron_projectors(pair)])
                out += np.dot(n, np.log(np.maximum(p, 1e-300)))
            return out

        assert res["log_likelihood"] >= ll(_lstsq(data.bases, data.n)) - 1e-6

    @pytest.mark.parametrize("bases", [certify.PAULI_SETTINGS, TETRAHEDRAL_PAIRS],
                             ids=["pauli", "tetrahedral"])
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3000))
    @example(0, 1)
    @settings(max_examples=10, deadline=None)
    def test_fitted_states_are_density_matrices(self, bases, seed, n):
        # Built unchecked as X^dagger X / tr: pure, full-rank and random truths,
        # one member with an all-zero row and one with no counts at all.
        rng = np.random.default_rng(seed)
        truths = np.concatenate([[SINGLET, noise.RHO_DIST, MIXED],
                                 certify.random_density_matrices(rng, 2)])
        counts = certify.simulate_counts_batch(truths, bases, n, range(seed, seed + 5))
        counts[1, rng.integers(len(bases))] = 0
        counts[4] = 0
        q = certify.fit(bases, counts, SINGLET)
        assert qmath.check_density(q["rho"]).shape == (5, 4, 4)
        assert q["dropped_settings"][1] >= 1 and q["dropped_settings"][4] == len(bases)

    def test_mle_drops_empty_settings(self):
        data = simulated(SINGLET, certify.PAULI_SETTINGS, 5000, 5)
        n = data.n.copy()
        n[0] = 0
        res = fit_one(certify.Counts(data.bases, n))
        assert res["dropped_settings"] == 1
        assert res["converged"]


class TestPpt:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 1.0])
    def test_dephased_singlet_spectrum(self, eta):
        q = certify.derived_batch(noise.dephased_singlets([eta]))
        expect = sorted([0.5, 0.5, (1 - eta) / 2, -(1 - eta) / 2], reverse=True)
        assert np.allclose(q["ppt_eigenvalues"][0], expect, atol=1e-10)
        assert q["negativity"][0] == pytest.approx((1 - eta) / 2, abs=1e-10)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_separable_states_have_ppt(self, seed):
        rho = random_separable_state(np.random.default_rng(seed))
        q = certify.derived_batch(rho[None])
        assert q["min_pt_eigenvalue"][0] >= -1e-10
        assert q["negativity"][0] <= 1e-10


class TestFidelityAndErrors:
    def test_uhlmann_pure_limit_matches_overlap(self):
        rho = noise.dephased_singlets(0.3)
        (f,) = certify.derived_batch(rho[None], SINGLET)["fidelity_to_target"]
        s = circuit.singlet().amplitudes
        overlap = np.vdot(s, rho @ s).real
        assert f == pytest.approx(overlap, abs=1e-10)

    def test_uhlmann_identical_states(self):
        rho = noise.baseline_states([0.4])
        (f,) = certify.derived_batch(rho, rho)["fidelity_to_target"]
        assert f == pytest.approx(1.0, abs=1e-10)

    def test_a_shared_target_equals_its_broadcast_stack(self):
        rhos = noise.dephased_singlets(np.linspace(0.0, 1.0, 5))
        for target in (SINGLET, noise.baseline_states(0.4)):
            shared = certify.derived_batch(rhos, target)["fidelity_to_target"]
            stacked = certify.derived_batch(rhos, np.stack([target] * 5))["fidelity_to_target"]
            np.testing.assert_allclose(shared, stacked, rtol=0, atol=1e-15)
            assert shared.shape == (5,)

    def test_monte_carlo_errors_deterministic_and_sized(self):
        data = simulated(noise.dephased_singlets(0.6), certify.PAULI_SETTINGS, 10_000, 21)
        e1 = certify.bootstrap(data, 20, 5)[0]
        e2 = certify.bootstrap(data, 20, 5)[0]
        assert e1 == e2
        assert 1e-4 < e1["witness"] < 0.1
        assert 1e-4 < e1["min_pt_eigenvalue"] < 0.1

    def test_monte_carlo_needs_replicas(self):
        # One replica is fewer than the two that must draw counts.
        data = simulated(SINGLET, certify.PAULI_SETTINGS, 100, 1)
        with pytest.raises(certify.CertifyError,
                           match="^only 1 of 1 bootstrap replicas drew counts$"):
            certify.bootstrap(data, 1, 0)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1).real


def _resampled_stack(truth, n_per_setting, seed, members):
    data = simulated(truth, certify.PAULI_SETTINGS, n_per_setting, seed)
    rng = np.random.default_rng(seed)
    return data.bases, np.stack([rng.poisson(data.n) for _ in range(members)])


def _replica_stream(seed):
    """The one generator ``certify.bootstrap`` draws its replicas from."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _bootstrap_stack(truth, seed, bases=certify.PAULI_SETTINGS, replicas=100):
    """Counts of ``truth`` at the setting tuples ``bases``, 10^4 per setting, and a
    fit stack of them shaped like ``certify.bootstrap``'s: the counts as member 0,
    then ``replicas`` Poisson replicas, replica r from ``default_rng([seed, r])``
    (a fixed engine fixture)."""
    data = simulated(truth, bases, 10_000, seed)
    drawn = (np.random.default_rng([seed, r]).poisson(data.n) for r in range(replicas))
    return data.bases, np.stack([data.n, *drawn])


# Worst-member iterations of EM without momentum on the benchmark's five
# sources, ``_bootstrap_stack(source, 11)``.
_EM_WORST_ITERATIONS = {"singlet": 72, "baseline-0.3": 132, "baseline-0.6": 132,
                        "distinguishable": 241, "maximally-mixed": 46}


def _single_fit(bases, counts, **kwargs):
    """One member's own ``mle_batch`` solve: (rho, log_likelihood, converged,
    iterations, dropped)."""
    return [x[0] for x in certify.mle_batch(bases, counts[None], **kwargs)]


def _lstsq(bases, counts):
    """The least-squares state of one dataset with no all-zero setting, projected
    onto density matrices (spectrum clipped at 0, unit trace): a start away from
    I/4 for tests whose premise needs one."""
    u, sv, vh = np.linalg.svd(certify.projector_table(bases).reshape(-1, 16), full_matrices=False)
    freq = (counts / counts.sum(axis=1, keepdims=True)).reshape(1, 1, -1)
    rho = ((freq @ u / sv) @ vh).reshape(1, 4, 4)
    vals, vecs = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    rho = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return (rho / _trace(rho)[..., None, None])[0]


def _factor(start):
    """A factor A of the start state blended with a little of I/4 (the fixed point
    cannot leave the support of its iterate), start ~ A^dagger A."""
    return np.linalg.cholesky(0.999 * start + 0.001 * np.eye(4) / 4).conj().T


def _serial_em(bases, counts, max_iter, start=None):
    """Reference for the batched engine: one state at a time in complex
    arithmetic, with its step rule.  The iterate is a factor A, rho = A^dagger A
    / tr, from I/2 (rho = I/4) or from ``_factor(start)``; the plain step is
    A R/N, and after a step that gained at least ``certify.STALL_TOL`` the next
    point is A R/N + beta (A R/N - A_prev R_prev/N).  A momentum point that
    lowers the likelihood by more than ``STALL_TOL`` restarts: the iterate
    stays and the next step is plain.  A plain step that lowers it by more than
    ``STALL_TOL`` and by more than 2 (4S + 1) eps |l|, S the settings, gives up:
    the solve ends unconverged at that iteration.  Any other step is a stall if
    it gains less than ``STALL_TOL`` and keeps the iterate if it lowers the
    likelihood.  Returns (rho, log_likelihood, converged, iterations, events),
    ``events`` counting the "restarts", the restarts in the run of stalls that
    ends the solve ("restarts in the last run"), the steps that lowered the
    likelihood and were kept as stalls ("rounding drops") and the "give-ups",
    and the iteration of the first plain step kept as a stall ("repeated from",
    0 if none): every later step repeats it, each a stall."""
    rounding = 2 * (counts.size + 1) * np.finfo(float).eps
    kept = counts.sum(axis=1) > 0
    proj = np.concatenate([_kron_projectors(pair) for pair in bases[kept]])
    a = np.eye(4, dtype=complex) / 2 if start is None else _factor(start)
    counts = counts[kept].reshape(-1)

    def normalized(f):
        return f / np.sqrt(np.trace(f.conj().T @ f).real)

    def probs(f):
        return np.maximum(np.einsum("kij,ji->k", proj, f.conj().T @ f).real, 1e-300)

    def loglike(f):
        return float(np.dot(counts, np.log(probs(f))))

    a = normalized(a)
    ll, stall, momentum, prev = loglike(a), 0, False, a
    events = dict.fromkeys(["restarts", "restarts in the last run", "rounding drops",
                            "give-ups", "repeated from"], 0)
    run_restarts = 0
    for it in range(1, max_iter + 1):
        r = np.einsum("k,kij->ij", counts / counts.sum() / probs(a), proj)
        step = a @ r
        point = normalized(step + certify._MOMENTUM * (step - prev) if momentum else step)
        prev, ll_new = step, loglike(point)
        gain = ll_new - ll
        if gain < -certify.STALL_TOL and momentum:
            events["restarts"] += 1
            run_restarts += 1
            momentum = False
            continue
        if gain < -certify.STALL_TOL and gain < -rounding * abs(ll):
            events["give-ups"] += 1
            return a.conj().T @ a, ll, False, it, events
        if gain < certify.STALL_TOL:
            stall += 1
        else:
            stall = run_restarts = 0
        events["rounding drops"] += gain < 0
        if gain < 0 and not momentum and not events["repeated from"]:
            events["repeated from"] = it
        momentum = gain >= certify.STALL_TOL
        if gain >= 0:
            a, ll = point, ll_new
        if stall >= 10:
            events["restarts in the last run"] = run_restarts
            return a.conj().T @ a, ll, True, it, events
    return a.conj().T @ a, ll, False, max_iter, events


@contextlib.contextmanager
def _starting_from(starts):
    """``mle_batch`` starts member b of a stack of ``len(starts)`` members at its
    ``_factor(starts[b])`` instead of at I/2."""
    factors = certify._real_image(np.array([_factor(start) for start in starts]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_START", factors)
        yield


def _overshooting_stack(seeds=(239, 535, 635, 754)):
    """Counts and nearly pure start points for which the plain fixed-point
    step lowers the likelihood, so the first iteration overshoots.  The seeds
    were picked by searching for that property, checked here."""
    proj = certify.projector_table(certify.PAULI_SETTINGS).reshape(-1, 4, 4)
    counts, starts = [], []
    for seed in seeds:
        rng = np.random.default_rng([seed, 17])
        truth = random_pure_state(rng).density().matrix
        data = simulated(truth, certify.PAULI_SETTINGS, 1000, seed)
        counts.append(data.n)
        starts.append(random_pure_state(rng).density().matrix)
    counts = np.array(counts, dtype=float)
    with _starting_from(starts):
        rhos = certify.mle_batch(certify.PAULI_SETTINGS, counts, max_iter=0)[0]
    for n, rho in zip(counts.reshape(len(seeds), -1), rhos):
        p = np.einsum("kij,ji->k", proj, rho).real
        r = np.einsum("k,kij->ij", n / p, proj)
        step = r @ rho @ r
        p_step = np.einsum("kij,ji->k", proj, step / np.trace(step).real).real
        assert np.dot(n, np.log(p_step)) < np.dot(n, np.log(p)) - 1.0
    return counts, np.array(starts)


class TestBatchedEngine:
    @pytest.mark.parametrize("bad", ["nan-axis", "inf-counts"])
    def test_non_finite_input_is_rejected_at_entry(self, bad):
        # A NaN likelihood never stalls, so a NaN axis plus an all-zero row used
        # to run all max_iter iterations (about 5 s at the default).
        bases, counts = certify.PAULI_SETTINGS, np.full((1, 9, 4), 25.0)
        if bad == "nan-axis":
            bases = np.concatenate([bases, [[[np.nan, 0.0, 1.0], Z]]])
            counts = np.concatenate([counts, np.zeros((1, 1, 4))], axis=1)
        else:
            counts[0, 3, 1] = np.inf
        t0 = time.perf_counter()
        with pytest.raises(certify.CertifyError, match="NaN or Inf"):
            certify.mle_batch(bases, counts)
        assert time.perf_counter() - t0 < 1.0

    def test_a_fit_whose_counts_overflow_raises(self):
        # Finite counts whose total overflows give a NaN likelihood, which never
        # stalls: unless rejected at entry they run all max_iter iterations (5 s).
        counts = np.full((1, 9, 4), 1.7e308)
        t0 = time.perf_counter()
        with pytest.raises(certify.CertifyError, match="NaN or Inf"):
            certify.fit(certify.PAULI_SETTINGS, counts, SINGLET)
        assert time.perf_counter() - t0 < 1.0

    def test_a_step_that_overflows_leaves_every_member_finite(self):
        # Counts log-uniform up to 1e15, half the cells zero: a step can make a state
        # nearly pure, whose floored p gives R/N near 1e285 and an X^T X that
        # overflows to NaN.  Such a point reads l = -inf, a loss, so the member keeps
        # its last finite iterate (2 of these 2400 members ended NaN without that).
        rng = np.random.default_rng(4)
        counts = np.floor(10 ** rng.uniform(0, 15, size=(2400, 9, 4)))
        counts[rng.random(counts.shape) < 0.5] = 0
        rho, ll, *_ = certify.mle_batch(certify.PAULI_SETTINGS, counts, max_iter=3000)
        assert np.isfinite(rho).all() and np.isfinite(ll).all()

    def test_a_plain_overshoot_gives_up(self):
        # From these starts the first plain step lowers the likelihood by more
        # than 1, far beyond rounding: each member ends unconverged at its start.
        counts, starts = _overshooting_stack()
        with _starting_from(starts):
            start = certify.mle_batch(certify.PAULI_SETTINGS, counts, max_iter=0)[0]
            rho, _, converged, iterations, _ = certify.mle_batch(certify.PAULI_SETTINGS, counts)
        assert not converged.any() and list(iterations) == [1] * len(counts)
        assert np.array_equal(rho, start)
        for b in range(len(counts)):
            ref = _serial_em(certify.PAULI_SETTINGS, counts[b], 100, starts[b])
            assert not ref[2] and ref[3] == 1 and ref[4]["give-ups"] == 1

    def test_a_restart_leaves_the_stall_count_alone(self, monkeypatch):
        # At STALL_TOL = 1e-6 these members' last run of stalls, from their
        # least-squares starts, opens with a restart: a momentum step that
        # overshoots by more than 1e-6, far above rounding, so the engine and
        # the reference take the same decisions.  Counted as a stall, the
        # restart would end the run early.
        monkeypatch.setattr(certify, "STALL_TOL", 1e-6)
        counts = certify.simulate_counts_batch(np.stack([MIXED] * 2), certify.PAULI_SETTINGS,
                                               10_000, [6, 11])
        starts = [_lstsq(certify.PAULI_SETTINGS, n) for n in counts]
        with _starting_from(starts):
            _, ll, converged, iterations, _ = certify.mle_batch(certify.PAULI_SETTINGS, counts)
        for b in range(len(counts)):
            ref = _serial_em(certify.PAULI_SETTINGS, counts[b], 1000, starts[b])
            assert ref[4]["restarts in the last run"] > 0
            assert converged[b] and ref[2] and iterations[b] == ref[3]
            assert ll[b] == pytest.approx(ref[1], rel=1e-12)

    def test_a_member_retired_at_its_first_repeated_step_equals_the_reference(self):
        # From its first kept plain step on, a member takes that step again bit for
        # bit, each time a stall; the engine ends it at once and reports the iteration
        # its tenth stall falls on.  The reference steps on to that stall.
        for truth, seed in ((MIXED, 4), (WERNER, 6)):
            data = simulated(truth, certify.PAULI_SETTINGS, 10_000, seed)
            ref = _serial_em(data.bases, data.n, 1000)
            rho, ll, converged, iterations, _ = _single_fit(data.bases, data.n)
            assert 0 < ref[4]["repeated from"] < iterations  # retired before its tenth stall
            assert converged and ref[2] and iterations == ref[3]
            assert np.max(np.abs(rho - ref[0])) <= 1e-12
            assert ll == pytest.approx(ref[1], rel=1e-12)

    def test_a_repeating_member_whose_tenth_stall_is_past_max_iter_ends_there(self):
        # It ends unconverged at max_iter, at the iterate it repeats: the one a solve
        # that steps on to max_iter returns, and the one its full solve converges at.
        data = simulated(MIXED, certify.PAULI_SETTINGS, 10_000, 4)
        full = _single_fit(data.bases, data.n)
        start = _serial_em(data.bases, data.n, 1000)[4]["repeated from"]
        assert 0 < start < full[3] - 1
        for k in range(start, full[3]):
            rho, ll, converged, iterations, _ = _single_fit(data.bases, data.n, max_iter=k)
            ref = _serial_em(data.bases, data.n, k)
            assert not converged and iterations == k and not ref[2] and ref[3] == k
            assert np.array_equal(rho, full[0]) and ll == full[1]
            assert np.max(np.abs(rho - ref[0])) <= 1e-12

    def test_members_match_their_own_single_solve(self):
        settings, counts = _resampled_stack(noise.dephased_singlets(0.6), 10_000, 31, 100)
        batch = certify.mle_batch(settings, counts)
        rho, _, converged, _, dropped = batch
        assert rho.shape == (100, 4, 4) and converged.all() and not dropped.any()
        for b in range(100):
            for got, single in zip(batch, _single_fit(settings, counts[b])):
                assert np.array_equal(got[b], single), b

    def test_every_member_of_a_bootstrap_stack_is_its_own_single_solve(self):
        # Every per-member product is a product of that member's arrays alone,
        # so no bit of a member's solve depends on the stack it sits in.
        settings, counts = _bootstrap_stack(noise.baseline_states(0.6), 41)
        batch = certify.mle_batch(settings, counts)
        for b in range(len(counts)):
            for got, single in zip(batch, _single_fit(settings, counts[b])):
                assert np.array_equal(got[b], single), b

    def test_every_member_of_a_tetrahedral_stack_is_its_own_single_solve(self):
        # The same on a setting set with no Pauli pair and 64 projectors, not
        # 36, where the members converge after 39-46 iterations.  The median
        # states the run's length: one member's last step moves with the BLAS
        # kernel (the shortest takes 39 under some, 40 under others).
        settings, counts = _bootstrap_stack(WERNER, 41, TETRAHEDRAL_PAIRS, replicas=11)
        batch = certify.mle_batch(settings, counts)
        assert batch[2].all() and np.median(batch[3]) >= 40
        for b in range(len(counts)):
            for got, single in zip(batch, _single_fit(settings, counts[b])):
                assert np.array_equal(got[b], single), b

    def test_momentum_halves_the_iterations_of_the_benchmark_sources(self):
        sources = {"singlet": SINGLET, "baseline-0.3": noise.baseline_states(0.3),
                   "baseline-0.6": noise.baseline_states(0.6), "distinguishable": noise.RHO_DIST,
                   "maximally-mixed": MIXED}
        worst = {name: int(certify.mle_batch(*_bootstrap_stack(truth, 11))[3].max())
                 for name, truth in sources.items()}
        assert sum(worst.values()) <= 0.5 * sum(_EM_WORST_ITERATIONS.values()), worst
        assert all(worst[name] <= _EM_WORST_ITERATIONS[name] for name in worst), worst

    def test_log_likelihood_never_decreases(self):
        # A stack of members that need few and many iterations, with the
        # maximally mixed state among them.  The engine is deterministic, so
        # the iterate after k steps is the result of a run with max_iter=k.
        stacks = [_resampled_stack(truth, 2000, 7, 4)
                  for truth in (SINGLET, noise.RHO_DIST, noise.RHO_MIX, MIXED)]
        settings = stacks[0][0]
        counts = np.concatenate([c for _, c in stacks])
        prev = certify.mle_batch(settings, counts, max_iter=0)[1]
        for k in range(1, 60):
            ll = certify.mle_batch(settings, counts, max_iter=k)[1]
            assert np.all(ll >= prev)
            prev = ll

    def test_zero_setting_member_starts_from_identity(self):
        # Every member starts at I/4, whether it drops a setting or not.
        settings, counts = _resampled_stack(SINGLET, 5000, 5, 2)
        counts[1, 0] = 0
        start = certify.mle_batch(settings, counts, max_iter=0)[0]
        for member in start:
            assert np.allclose(member, np.eye(4) / 4, atol=1e-15)
        rho, _, converged, _, dropped = certify.mle_batch(settings, counts)
        assert list(dropped) == [0, 1] and converged.all()
        single = _single_fit(settings, counts[1])
        assert single[4] == 1 and np.max(np.abs(rho[1] - single[0])) <= 1e-9

    def test_a_member_without_counts_ends_at_its_start(self):
        # It stays at I/4 with l = 0, unconverged after 0 iterations, every setting
        # dropped; the other members are bit for bit their own solves.
        settings, counts = _resampled_stack(SINGLET, 1000, 7, 3)
        counts[1] = 0
        rho, ll, converged, iterations, dropped = certify.mle_batch(settings, counts)
        assert np.array_equal(rho[1], np.eye(4) / 4) and ll[1] == 0.0
        assert not converged[1] and iterations[1] == 0 and dropped[1] == 9
        for b in (0, 2):
            single = _single_fit(settings, counts[b])
            assert single[2] and single[3] > 0
            for got, want in zip((rho, ll, converged, iterations, dropped), single):
                assert np.array_equal(got[b], want)
        assert [x.tolist() for x in _single_fit(settings, counts[1])[1:]] == [0.0, False, 0, 9]

    def test_rounding_level_drops_on_maximally_mixed_counts_are_stalls(self):
        # Near the maximally mixed optimum a step lowers the likelihood by a
        # few ulp of |l| ~ 1e5.  Such a drop is a stall: the engine keeps its
        # iterate bit for bit, as it does after a restart, and never gives up.
        # The approach from the least-squares start takes such drops.
        data = simulated(MIXED, certify.PAULI_SETTINGS, 10_000, 5)
        start = _lstsq(data.bases, data.n)
        with _starting_from([start]):
            total = _single_fit(data.bases, data.n)[3]
            kept = 0
            rho, ll, _, _, _ = _single_fit(data.bases, data.n, max_iter=0)
            for k in range(1, total + 1):
                nxt, ll_nxt, _, _, _ = _single_fit(data.bases, data.n, max_iter=k)
                ref = _serial_em(data.bases, data.n, k, start)
                assert ll_nxt >= ll, k
                assert np.max(np.abs(nxt - ref[0])) <= 1e-12, k
                kept += np.array_equal(nxt, rho)
                rho, ll = nxt, ll_nxt
        events = ref[4]
        assert ref[2] and ref[3] == total
        assert events["rounding drops"] > 0 and events["give-ups"] == 0
        assert kept == events["rounding drops"] + events["restarts"]
        res = fit_one(data)
        assert res["converged"] and res["fidelity_to_target"] == pytest.approx(0.25, abs=0.01)

    def test_rounding_level_drops_at_high_counts_are_stalls(self):
        # At 10^5 counts per setting |l| ~ 1e6, where one ulp exceeds STALL_TOL,
        # so a plain step near the optimum may lower l by more than STALL_TOL.
        # Such a drop is a stall, so bootstrap stacks converge in a few dozen
        # iterations.
        for truth in (SINGLET, noise.RHO_DIST, noise.baseline_states(0.6)):
            data = simulated(truth, certify.PAULI_SETTINGS, 100_000, 3)
            drawn = [np.random.default_rng([3, r]).poisson(data.n) for r in range(20)]
            stack = np.stack([data.n, *drawn])
            _, _, converged, iterations, _ = certify.mle_batch(data.bases, stack)
            assert converged.all() and iterations.max() <= 80
        # Random states at 3x10^5 counts end with such drops on every setting
        # set, and none of them is large enough to give up.
        rhos = certify.random_density_matrices(np.random.default_rng(2), 100)
        for bases in (certify.PAULI_SETTINGS, TETRAHEDRAL_PAIRS):
            counts = certify.simulate_counts_batch(rhos, bases, 300_000, range(100))
            assert certify.mle_batch(bases, counts)[2].all()

    def test_stacked_tomography_matches_single_fits(self):
        truths = noise.dephased_singlets([0.0, 0.5, 1.0])
        counts = certify.simulate_counts_batch(truths, certify.PAULI_SETTINGS, 3000, range(3))
        batch = certify.fit(certify.PAULI_SETTINGS, counts, truths)
        for b, truth in enumerate(truths):
            single = fit_one(certify.Counts(certify.PAULI_SETTINGS, counts[b]), truth)
            assert batch.keys() == single.keys()
            for key, val in single.items():
                assert np.array_equal(batch[key][b], val), (b, key)
            assert batch["converged"][b] and batch["iterations"][b] > 0

    def test_bootstrap_reports_converged_replicas(self):
        data = simulated(noise.dephased_singlets(0.6), certify.PAULI_SETTINGS, 10_000, 21)
        _, converged, _, _ = certify.bootstrap(data, 20, 5)
        assert converged == 20

    def test_bootstrap_tests_the_settings_the_data_measured(self):
        # An all-zero row measures nothing: it cannot stand in for a missing setting.
        data = simulated(SINGLET, certify.PAULI_SETTINGS, 1000, 4)
        without_zz = certify.Counts(data.bases[:-1], data.n[:-1])
        zero_row = certify.Counts(np.concatenate([data.bases[:-1], [[Z, Z]]]),
                                  np.concatenate([data.n[:-1], [[0, 0, 0, 0]]]))
        for counts in (without_zz, zero_row):
            with pytest.raises(certify.CertifyError, match="rank 15 of 16"):
                certify.bootstrap(counts, 2, 1)
        extra = certify.Counts(np.concatenate([data.bases, [[X, X]]]),
                               np.concatenate([data.n, [[0, 0, 0, 0]]]))
        _, converged, _, q = certify.bootstrap(extra, 2, 1)
        assert converged == 2 and q["dropped_settings"] == 1

    def test_bootstrap_deviations_exclude_the_point_estimate(self):
        # Member 0 of the stack is the counts themselves: with two replicas
        # the deviations are those of the two replica fits alone.
        data = simulated(noise.dephased_singlets(0.6), certify.PAULI_SETTINGS, 10_000, 21)
        errors, converged, _, _ = certify.bootstrap(data, 2, 5)
        replicas = _replica_stream(5).poisson(data.n, size=(2, *data.n.shape))
        alone = certify.fit(data.bases, replicas, SINGLET)
        assert converged == 2 and errors.keys() == alone.keys() - set(certify.FIT_FIELDS)
        for key, sd in errors.items():
            np.testing.assert_allclose(sd, np.std(alone[key], axis=0, ddof=1), rtol=0, atol=1e-9)


class TestBootstrapStream:
    def test_replicas_never_replay_the_draw_of_the_counts(self, monkeypatch):
        # Counts simulated from seed s, then bootstrapped with the same seed, as
        # ``certify --state`` does: the counts' own noise (counts - mean) and
        # each replica's resampling noise (replica - counts) must be
        # uncorrelated.  I/4 puts 2500 counts on every outcome; over 300 seeds
        # the correlation of independent noise has a standard error near 0.01.
        seeds = range(300)
        counts = certify.simulate_counts_batch(np.broadcast_to(MIXED, (300, 4, 4)),
                                               certify.PAULI_SETTINGS, 10_000, seeds)

        class Stacked(Exception):
            pass

        stacks = []

        def capture(bases, stack, targets):
            stacks.append(stack)
            raise Stacked

        monkeypatch.setattr(certify, "fit", capture)
        for seed, n in zip(seeds, counts):
            with pytest.raises(Stacked):
                certify.bootstrap(certify.Counts(certify.PAULI_SETTINGS, n), 3, seed)
        stacks = np.array(stacks)
        data_noise = (stacks[:, 0] - 2500).ravel()
        for r in (1, 2, 3):
            resampling_noise = (stacks[:, r] - stacks[:, 0]).ravel()
            assert abs(np.corrcoef(data_noise, resampling_noise)[0, 1]) < 0.1, r

    def test_the_first_replicas_stay_when_more_are_drawn(self):
        # The stream is consumed in C order: bootstrap(data, 10, s) fits the
        # first 10 replicas of a 20-replica draw.
        data = simulated(noise.dephased_singlets(0.6), certify.PAULI_SETTINGS, 10_000, 21)
        errors = certify.bootstrap(data, 10, 5)[0]
        first = _replica_stream(5).poisson(data.n, size=(20, *data.n.shape))[:10]
        alone = certify.fit(data.bases, first, SINGLET)
        for key, sd in errors.items():
            np.testing.assert_array_equal(sd, np.std(alone[key], axis=0, ddof=1))

    def test_deviations_match_per_replica_generators(self):
        # The one stream and one generator per replica, default_rng([seed, r + 1])
        # (off the counts' stream), give sigmas with the same mean over 20 seeds:
        # each quantity's two means agree within 3 standard errors of their
        # spread across seeds.
        seeds = range(700, 720)
        truths = np.broadcast_to(noise.dephased_singlets(0.6), (20, 4, 4))
        counts = certify.simulate_counts_batch(truths, certify.PAULI_SETTINGS, 10_000, seeds)
        stream = [certify.bootstrap(certify.Counts(certify.PAULI_SETTINGS, n), 100, seed)[0]
                  for seed, n in zip(seeds, counts)]
        drawn = np.stack([np.random.default_rng([seed, r + 1]).poisson(n)
                          for seed, n in zip(seeds, counts) for r in range(100)])
        q = certify.fit(certify.PAULI_SETTINGS, drawn, SINGLET)
        for key in stream[0]:
            new = np.array([sd[key] for sd in stream])
            ref = np.std(q[key].reshape(20, 100, -1), axis=1, ddof=1).reshape(new.shape)
            se = np.sqrt((np.var(new, axis=0, ddof=1) + np.var(ref, axis=0, ddof=1)) / 20)
            assert np.all(np.abs(new.mean(axis=0) - ref.mean(axis=0)) <= 3 * se), key


# ---------------------------------------------------------------------------
# Per-setting reference builders: the vectorised projector table and counts
# draw must reproduce them exactly.

def _kron_projectors(pair):
    pa, pb = (np.tensordot(v, certify._PAULI_VEC, axes=1) for v in pair)
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    return np.stack([np.kron((qmath.I2 + s1 * pa) / 2, (qmath.I2 + s2 * pb) / 2)
                     for s1, s2 in signs])


def _loop_counts(rho, bases, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for pair in bases:
        p = np.clip(np.array([np.trace(rho @ pi).real for pi in _kron_projectors(pair)]),
                    0.0, 1.0)
        out.append([int(c) for c in rng.poisson(np.maximum(n * p, 1e-300))])
    return out


bloch = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


class TestVectorisedMeasurement:
    def test_pauli_table_equals_per_setting_kron(self):
        table = certify.projector_table(certify.PAULI_SETTINGS)
        assert table.shape == (9, 4, 4, 4)
        assert np.array_equal(table, np.stack([_kron_projectors(pair)
                                               for pair in certify.PAULI_SETTINGS]))

    @given(st.lists(st.tuples(bloch, bloch), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_table_equals_per_setting_kron_for_any_axes(self, pairs):
        bases = np.array(pairs)
        table = certify.projector_table(bases)
        for pair, t in zip(bases, table):
            assert np.array_equal(t, _kron_projectors(pair))
            assert np.array_equal(certify.projector_table(pair)[0], t)

    def test_counts_equal_the_per_setting_draws(self):
        states = np.concatenate([[SINGLET, noise.baseline_states(0.3), noise.RHO_DIST],
                                 certify.random_density_matrices(np.random.default_rng(3), 2)])
        general = np.concatenate([certify.PAULI_SETTINGS, [[[0.6, 0.8, 0.0], Z]]])
        for seed, n in ((0, 1), (7, 10_000), (12345, 123_456), (99, 10**15)):
            for bases in (certify.PAULI_SETTINGS, general):
                counts = certify.simulate_counts_batch(states, bases, n, [seed] * len(states))
                for rho, member in zip(states, counts):
                    assert member.tolist() == _loop_counts(rho, bases, n, seed)

    @pytest.mark.parametrize("mean, uniforms", [(1e-300, 1), (1e-17, 1), (0.0, 0)])
    def test_a_tiny_poisson_mean_draws_0_from_one_uniform(self, mean, uniforms):
        # The floor of simulate_counts_batch rests on this: numpy draws 0 from one
        # uniform for any mean in (0, 1e-16], and from none for a mean of exactly 0.
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert rng.poisson(mean) == 0
        for _ in range(uniforms):
            reference.random()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_rounding_level_mean_moves_no_other_count(self):
        # The first cell of ZZ, here the first setting, has mean 0.0 in one state and
        # 1e-17 in the other; every other mean is the same float in both.
        bases = certify.PAULI_SETTINGS[::-1]
        rhos = np.stack([np.diag([0.0, 0.5, 0.5, 0.0]), np.diag([1e-17, 0.5, 0.5, 0.0])])
        means = certify._outcome_probabilities(rhos, bases)
        assert (means[0, 0, 0], means[1, 0, 0]) == (0.0, 1e-17)
        assert np.array_equal(means[0].ravel()[1:], means[1].ravel()[1:])
        for seed in range(20):
            counts = certify.simulate_counts_batch(rhos, bases, 1, [seed, seed])
            assert np.array_equal(counts[0], counts[1])

    def test_stacked_counts_equal_the_per_state_draws(self):
        rhos = np.concatenate([noise.dephased_singlets(np.linspace(0.0, 1.0, 5)),
                               certify.random_density_matrices(np.random.default_rng(8), 3)])
        general = np.concatenate([certify.PAULI_SETTINGS, [[[0.6, 0.8, 0.0], Z]]])
        seeds = [3, 0, 2**63, 12345, 7, 7, 1, 99]
        for bases in (certify.PAULI_SETTINGS, general, np.empty((0, 2, 3))):
            for n in (1, 10_000, 10**15):
                counts = certify.simulate_counts_batch(rhos, bases, n, seeds)
                assert counts.shape == (len(rhos), len(bases), 4)
                for rho, seed, member in zip(rhos, seeds, counts):
                    single = certify.simulate_counts_batch(rho[None], bases, n, [seed])
                    assert np.array_equal(member, single[0])

    def test_member_probabilities_do_not_depend_on_the_stack(self):
        # Bit for bit, at every stack size: np.einsum's products fail this.
        rng = np.random.default_rng(39)
        axes = rng.normal(size=(6, 2, 3))
        axes /= np.linalg.norm(axes, axis=2, keepdims=True)
        for size in (1, 2, 5, 21, 51, 159):
            rhos = certify.random_density_matrices(rng, size)
            for bases in (certify.PAULI_SETTINGS, TETRAHEDRAL_PAIRS, axes):
                probs = certify._outcome_probabilities(rhos, bases)
                assert probs.shape == (size, len(bases), 4)
                for rho, member in zip(rhos, probs):
                    single = certify._outcome_probabilities(rho[None], bases)[0]
                    assert member.tobytes() == single.tobytes()

    def test_random_stack_equals_the_per_state_draws(self):
        def one(rng):  # the single Ginibre draw
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            return m / np.trace(m).real

        rng = np.random.default_rng(2024)
        reference = np.stack([one(rng) for _ in range(500)])
        drawn = certify.random_density_matrices(np.random.default_rng(2024), 500)
        assert np.array_equal(drawn, reference)
        qmath.check_density(drawn)  # built unchecked: g g^dagger / tr

    def test_no_settings_give_no_counts(self):
        assert certify.projector_table([]).shape == (0, 4, 4, 4)
        data = simulated(SINGLET, np.empty((0, 2, 3)), 10, 1)
        assert len(data) == 0 and data.bases.shape == (0, 2, 3) and data.n.shape == (0, 4)
        with pytest.raises(certify.CertifyError, match="rank 0 of 16"):
            certify._check_complete(certify.projector_table(data.bases))

    def test_outcome_probabilities_need_two_qubits(self):
        # The projectors are 4x4: a stack of three-qubit states does not broadcast.
        with pytest.raises(ValueError, match="could not be broadcast"):
            certify.simulate_counts_batch(np.eye(8)[None] / 8, certify.PAULI_SETTINGS, 10, [1])
