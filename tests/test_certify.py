import contextlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmesim import certify, circuit, cli, noise, qmath

SINGLET = noise.SINGLET
COUNTS_HEADER = "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
MIXED = np.eye(4, dtype=complex) / 4
X, Y, Z = certify.AXES["X"], certify.AXES["Y"], certify.AXES["Z"]


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
        labels = [certify.AXIS_NAMES[i] + certify.AXIS_NAMES[j]
                  for i, j in certify.axis_index(certify.PAULI_SETTINGS)]
        assert labels == [a + b for a in "XYZ" for b in "XYZ"]


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
        rho = certify.random_density_matrices(np.random.default_rng(seed), 1)
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

    def test_stacked_chsh_fixed_is_at_the_singlet_optimal_settings(self):
        states = np.concatenate([certify.random_density_matrices(np.random.default_rng(19), 20),
                                 SINGLET[None]])
        stacked = certify.derived_batch(states)["chsh_fixed"]
        reference = chsh_at(states, [certify.singlet_optimal_settings()] * len(states))
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


def _bootstrap_stack(truth, seed):
    """Pauli-pair counts of ``truth`` at 10^4 per setting and ``certify.bootstrap``'s
    fit stack of them: the counts as member 0, then 100 replicas seeded [seed, r]."""
    data = simulated(truth, certify.PAULI_SETTINGS, 10_000, seed)
    drawn = (np.random.default_rng([seed, r]).poisson(data.n) for r in range(100))
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
    likelihood and were kept as stalls ("rounding drops") and the "give-ups"."""
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
                            "give-ups"], 0)
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

    def test_members_match_their_own_single_solve(self):
        settings, counts = _resampled_stack(noise.dephased_singlets(0.6), 10_000, 31, 100)
        rho, ll, converged, iterations, dropped = certify.mle_batch(settings, counts)
        assert rho.shape == (100, 4, 4) and converged.all() and not dropped.any()
        for b in range(100):
            single = _single_fit(settings, counts[b])
            assert np.max(np.abs(rho[b] - single[0])) <= 1e-9
            assert ll[b] == pytest.approx(single[1], rel=1e-12)
            assert converged[b] == single[2]

    def test_every_member_of_a_bootstrap_stack_is_its_own_single_solve(self):
        # Every per-member product is a product of that member's arrays alone,
        # so no bit of a member's solve depends on the stack it sits in.
        settings, counts = _bootstrap_stack(noise.baseline_states(0.6), 41)
        batch = certify.mle_batch(settings, counts)
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
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        rhos = certify.random_density_matrices(np.random.default_rng(2), 100)
        for bases in (certify.PAULI_SETTINGS, [[a, b] for a in tet for b in tet]):
            counts = certify.simulate_counts_batch(rhos, bases, 300_000, range(100))
            assert certify.mle_batch(bases, counts)[2].all()

    def test_stacked_tomography_matches_single_fits(self):
        truths = noise.dephased_singlets([0.0, 0.5, 1.0])
        counts = certify.simulate_counts_batch(truths, certify.PAULI_SETTINGS, 3000, range(3))
        batch = certify.fit(certify.PAULI_SETTINGS, counts, truths)
        for b, truth in enumerate(truths):
            single = fit_one(certify.Counts(certify.PAULI_SETTINGS, counts[b]), truth)
            assert np.max(np.abs(batch["rho"][b] - single["rho"])) <= 1e-9
            assert batch["fidelity_to_target"][b] == pytest.approx(
                single["fidelity_to_target"], abs=1e-9)
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
        replicas = np.stack([np.random.default_rng([5, rep]).poisson(data.n) for rep in (0, 1)])
        alone = certify.fit(data.bases, replicas, SINGLET)
        assert converged == 2 and errors.keys() == alone.keys() - set(certify.FIT_FIELDS)
        for key, sd in errors.items():
            np.testing.assert_allclose(sd, np.std(alone[key], axis=0, ddof=1), rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# Per-setting reference builders: the vectorised projector table, counts
# draw and axis labels must reproduce them exactly.

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
        out.append([int(c) for c in rng.poisson(n * p)])
    return out


def _axis_label(v):
    for name, axis in certify.AXES.items():
        if np.allclose(v, axis, atol=1e-9):
            return name
    return None


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

    def test_random_stack_equals_the_per_state_draws(self):
        def one(rng):  # the single Ginibre draw
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            return m / np.trace(m).real

        rng = np.random.default_rng(2024)
        reference = np.stack([one(rng) for _ in range(500)])
        assert np.array_equal(certify.random_density_matrices(np.random.default_rng(2024), 500),
                              reference)

    def test_no_settings_give_no_counts(self):
        assert certify.projector_table([]).shape == (0, 4, 4, 4)
        data = simulated(SINGLET, np.empty((0, 2, 3)), 10, 1)
        assert len(data) == 0 and data.bases.shape == (0, 2, 3) and data.n.shape == (0, 4)
        with pytest.raises(certify.CertifyError, match="rank 0 of 16"):
            certify._check_complete(certify.projector_table(data.bases))

    def test_outcome_probabilities_need_two_qubits(self):
        # The projectors are 4x4: a stack of three-qubit states does not broadcast.
        with pytest.raises(ValueError, match="matmul"):
            certify.simulate_counts_batch(np.eye(8)[None] / 8, certify.PAULI_SETTINGS, 10, [1])

    @pytest.mark.parametrize("offset, labelled", [(1e-10, True), (1e-8, False)])
    def test_axis_labels_match_allclose(self, offset, labelled):
        rng = np.random.default_rng(5)
        vectors = [axis + sign * offset * d for axis in np.eye(3) for sign in (1, -1)
                   for d in (*np.eye(3), rng.normal(size=3) / np.sqrt(3))]
        vectors += [-np.eye(3)[0], np.ones(3) / np.sqrt(3), np.array([np.nan, 0, 1])]
        idx = certify.axis_index(np.array(vectors))
        for v, i in zip(vectors, idx):
            assert (certify.AXIS_NAMES[i] if i >= 0 else None) == _axis_label(v)
        assert (idx[:24] >= 0).all() == labelled
