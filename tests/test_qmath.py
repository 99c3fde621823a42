import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmesim import qmath


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


class TestTypes:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(qmath.QmathError):
            qmath.PureState((2, 2), np.array([1.0, 1.0, 0, 0]))

    def test_pure_state_dim_mismatch(self):
        with pytest.raises(qmath.DimensionMismatch):
            qmath.PureState((2, 2, 2), np.array([1.0, 0, 0, 0]))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(qmath.NotHermitian):
            qmath.DensityMatrix((2, 2), m)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(qmath.QmathError):
            qmath.DensityMatrix((2, 2), m)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(qmath.QmathError):
            qmath.DensityMatrix((2, 2), np.eye(4, dtype=complex))

    def test_density_of_pure_state(self):
        psi = qmath.PureState((2,), np.array([1, 1j]) / np.sqrt(2))
        rho = psi.density()
        assert rho.purity() == pytest.approx(1.0)
        assert qmath.fidelity_pure(rho, psi) == pytest.approx(1.0)

    def test_density_check_covers_every_member_of_a_stack(self):
        good = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        qmath.check_density(good)
        bad = good.copy()
        bad[2, 0, 0], bad[2, 1, 1] = 0.5, 0.0
        bad[2, 0, 1] = bad[2, 1, 0] = 0.3
        with pytest.raises(qmath.QmathError, match="negative eigenvalue"):
            qmath.check_density(bad)
        bad = good.copy()
        bad[1, 0, 1] = 0.1
        with pytest.raises(qmath.NotHermitian):
            qmath.check_density(bad)
        bad = good.copy()
        bad[0] *= 2
        with pytest.raises(qmath.QmathError, match="trace"):
            qmath.check_density(bad)

    def test_nan_rejected(self):
        with pytest.raises(qmath.QmathError):
            qmath.as_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestKron:
    def test_pauli_algebra(self):
        assert np.allclose(qmath.SIGMA_X @ qmath.SIGMA_Y, 1j * qmath.SIGMA_Z)
        assert np.allclose(qmath.HADAMARD @ qmath.HADAMARD, np.eye(2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kron_matches_numpy_and_is_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(qmath.kron(a, b), np.kron(a, b))
        assert np.allclose(
            qmath.kron_all(a, b, c), qmath.kron(qmath.kron(a, b), c)
        )

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kron_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        assert np.allclose(qmath.kron(a + b, c), qmath.kron(a, c) + qmath.kron(b, c))


class TestEig:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(rng, n)
        vals, vecs = qmath.hermitian_eig(h)
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.allclose(vals, ref, atol=1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-12)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12)

    def test_descending_and_phase_fixed(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        vals, vecs = qmath.hermitian_eig(h)
        assert np.all(np.diff(vals) <= 1e-14)
        for k in range(6):
            nz = np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0]
            z = vecs[nz, k]
            assert abs(z.imag) < 1e-12 and z.real > 0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_eigenvalue_sum_is_trace(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 5)
        vals, _ = qmath.hermitian_eig(h)
        assert np.sum(vals) == pytest.approx(np.trace(h).real, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(qmath.NotHermitian):
            qmath.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPartialOps:
    def test_partial_trace_product_state(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        b /= np.linalg.norm(b)
        psi = qmath.PureState((2, 2), np.kron(a, b))
        ra = qmath.partial_trace(psi.density(), keep=[0])
        assert np.allclose(ra.matrix, np.outer(a, a.conj()), atol=1e-12)

    def test_partial_trace_bell_state_is_mixed(self):
        psi = qmath.PureState((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
        r = qmath.partial_trace(psi.density(), keep=[1])
        assert np.allclose(r.matrix, np.eye(2) / 2)

    def test_partial_trace_four_qubits(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        psi = qmath.PureState((2, 2, 2, 2), v)
        r = qmath.partial_trace(psi.density(), keep=[0, 3])
        assert r.dims == (2, 2)
        assert np.trace(r.matrix).real == pytest.approx(1.0)
        # Agreement with an independent einsum contraction.
        t = psi.density().matrix.reshape([2] * 8)
        ref = np.einsum("abcdebcf->adef", t).reshape(4, 4)
        assert np.allclose(r.matrix, ref, atol=1e-12)

    def test_partial_trace_bad_subsystem(self):
        rho = qmath.PureState((2, 2), np.array([1.0, 0, 0, 0])).density()
        with pytest.raises(qmath.BadSubsystem):
            qmath.partial_trace(rho, keep=[5])
        with pytest.raises(qmath.BadSubsystem):
            qmath.partial_trace(rho, keep=[])

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0, 1]))
    @settings(max_examples=25, deadline=None)
    def test_double_partial_transpose_is_identity(self, seed, sub):
        # Separable mixtures have a PSD partial transpose, so the intermediate
        # matrix is itself a valid state and the map can be applied twice.
        rng = np.random.default_rng(seed)
        m = np.zeros((4, 4), dtype=complex)
        for w in rng.dirichlet(np.ones(3)):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            m += w * np.outer(v, v.conj())
        rho = qmath.DensityMatrix((2, 2), m)
        pt = qmath.partial_transpose(rho, sub)
        pt2 = qmath.partial_transpose(qmath.DensityMatrix((2, 2), pt), sub)
        assert np.allclose(pt2, rho.matrix, atol=1e-12)

    def test_partial_transpose_both_subsystems_transpose(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = qmath.DensityMatrix((2, 2), m / np.trace(m).real)
        p0 = qmath.partial_transpose(rho, 0)
        p1 = qmath.partial_transpose(rho, 1)
        assert np.allclose(p0.T, p1, atol=1e-14)

    def test_partial_transpose_rejects_wrong_dims(self):
        rho = qmath.DensityMatrix((4,), np.eye(4) / 4)
        with pytest.raises(qmath.DimensionMismatch):
            qmath.partial_transpose(rho, 0)


def _rehermit(m):
    return (m + m.conj().T) / 2
