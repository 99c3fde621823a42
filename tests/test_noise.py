import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmesim import certify, circuit, noise, qmath

unit = st.floats(0.0, 1.0, allow_nan=False)


def dephase_choi(eta: float) -> np.ndarray:
    """Choi matrix of the dephasing channel (16x16), for CPTP checks."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # E_ij, row-major in (i, j)
    return sum(np.kron(noise._dephased(e, eta), e) for e in units)


class TestFixedStates:
    def test_rho_mix_is_dephased_singlet_endpoint(self):
        assert np.allclose(noise.rho_mix().matrix, noise.dephased_singlet(1.0).matrix)

    def test_rho_mix_diagonal(self):
        m = noise.rho_mix().matrix
        assert np.allclose(np.diag(np.diag(m)), m)
        assert m[1, 1] == m[2, 2] == 0.5

    def test_rho_dist_structure(self):
        rho = noise.rho_dist()
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(0.625)  # overlap 1/2 between the two kets
        assert certify.witness_w(rho) == pytest.approx(1.0, abs=1e-12)


class TestDephasing:
    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_interpolates_singlet_coherence(self, eta):
        m = noise.dephased_singlet(eta).matrix
        assert m[1, 2] == pytest.approx(-(1 - eta) / 2, abs=1e-12)
        assert m[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_identity_at_zero(self):
        s = circuit.singlet().density()
        assert np.allclose(noise._dephased(s.matrix, 0.0), s.matrix)

    def test_channel_is_cptp(self):
        for eta in (0.0, 0.3, 1.0):
            choi = dephase_choi(eta)
            vals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
            assert vals.min() >= -1e-12
            # Trace-preserving: tracing out the output factor leaves the identity.
            t = choi.reshape(4, 4, 4, 4)
            assert np.allclose(np.einsum("kikj->ij", t), np.eye(4), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(noise.OutOfRange):
            noise.dephased_singlet(1.2)


class TestDistinguishability:
    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_witness_law(self, v):
        assert certify.witness_w(noise.distinguishable_state(v)) == pytest.approx(
            1 - 2 * v, abs=1e-12
        )

    def test_endpoints(self):
        assert np.allclose(
            noise.distinguishable_state(1.0).matrix, circuit.singlet().density().matrix
        )
        assert np.allclose(noise.distinguishable_state(0.0).matrix, noise.rho_dist().matrix)


class TestMixAndBaseline:
    def test_baseline_reproduces_reference_witness(self):
        assert certify.witness_w(noise.baseline_state(0.0)) == pytest.approx(
            -0.72, abs=1e-12
        )

    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_baseline_witness_is_scaled_ideal_law(self, eta):
        w = certify.witness_w(noise.baseline_state(eta))
        assert w == pytest.approx(1 - 2 * 0.86 * (1 - eta), abs=1e-12)


def _old_rho_mix():
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    return m


def _old_rho_dist():
    h_plus = np.zeros(4, dtype=complex)
    h_plus[[2, 3]] = 1 / np.sqrt(2)
    plus_h = np.zeros(4, dtype=complex)
    plus_h[[1, 3]] = 1 / np.sqrt(2)
    return (np.outer(h_plus, h_plus.conj()) + np.outer(plus_h, plus_h.conj())) / 2


def _old_dephase(m, eta):
    z2 = np.kron(qmath.I2, qmath.SIGMA_Z)
    dephased = 0.5 * (m + z2 @ m @ z2)
    return (1 - eta) * m + eta * dephased


def _old_mix(a, b, p):
    return p * a + (1 - p) * b


CONSTANTS = (noise.SINGLET, noise.RHO_MIX, noise.RHO_DIST, noise._Z2)


class TestConstantStates:
    """The state families built from module constants against the parent
    code's channel compositions, kept here as references."""

    @given(unit, unit)
    @settings(max_examples=40)
    def test_equal_to_the_channel_compositions(self, x, w):
        s = circuit.singlet().density()
        assert np.array_equal(noise.rho_mix().matrix, _old_rho_mix())
        assert np.array_equal(noise.rho_dist().matrix, _old_rho_dist())
        baseline = _old_dephase(_old_mix(s.matrix, _old_rho_mix(), w), x)
        for state, matrix in [
            (noise.dephased_singlet(x), _old_dephase(s.matrix, x)),
            (noise.distinguishable_state(x), _old_mix(s.matrix, _old_rho_dist(), x)),
            (noise.baseline_state(x, w), baseline),
        ]:
            assert np.array_equal(state.matrix, matrix)

    def test_returned_states_share_no_memory_with_constants(self):
        states = [noise.rho_mix(), noise.rho_dist()] + [
            f(x) for f in (noise.dephased_singlet, noise.distinguishable_state,
                           noise.baseline_state) for x in (0.0, 1.0)]
        states += [noise.baseline_state(0.0, 1.0), noise.baseline_state(1.0, 0.0)]
        for rho in states:
            assert rho.matrix.flags.writeable
            assert not any(np.shares_memory(rho.matrix, c) for c in CONSTANTS)
        for c in CONSTANTS:
            assert not c.flags.writeable

    def test_out_of_range_parameters(self):
        for call in (lambda: noise.baseline_state(1.5), lambda: noise.baseline_state(0.5, -0.1),
                     lambda: noise.distinguishable_state(float("nan"))):
            with pytest.raises(noise.OutOfRange):
                call()


FAMILIES = {
    "eta": (noise.dephased_singlets, noise.dephased_singlet),
    "v": (noise.distinguishable_states, noise.distinguishable_state),
    "baseline": (lambda x: noise.baseline_states(x, 0.7), lambda x: noise.baseline_state(x, 0.7)),
}


class TestStackedFamilies:
    """Each family maps a parameter array to one stack; the single-state
    constructors are views of the same formula."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_members_equal_the_single_state_views(self, family):
        stacked, single = FAMILIES[family]
        grid = np.concatenate([np.linspace(0.0, 1.0, 21),
                               np.random.default_rng(5).random(50), [0.0, 1.0]])
        states = stacked(grid)
        assert states.shape == (len(grid), 4, 4)
        for x, rho in zip(grid, states):
            assert np.array_equal(rho, single(float(x)).matrix)
        assert np.array_equal(stacked(grid.reshape(-1, 1)), states[:, None])
        assert np.array_equal(stacked(0.3), single(0.3).matrix)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25, float("inf")])
    def test_a_bad_entry_is_named(self, family, bad):
        name = "v" if family == "v" else "eta"
        with pytest.raises(noise.OutOfRange, match=rf"^{name} = {bad!r} outside \[0, 1\]$"):
            FAMILIES[family][0]([0.0, 0.5, bad, 1.0])
