import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmesim import certify, circuit, noise, qmath

unit = st.floats(0.0, 1.0, allow_nan=False)


def dephase_choi(eta: float) -> np.ndarray:
    """Choi matrix of the dephasing channel (16x16), for CPTP checks."""
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # E_ij, row-major in (i, j)
    return sum(np.kron(noise._dephased(e, eta), e) for e in units)


class TestFixedStates:
    def test_rho_mix_is_dephased_singlet_endpoint(self):
        assert np.allclose(noise.RHO_MIX, noise.dephased_singlets(1.0))

    def test_rho_mix_diagonal(self):
        m = noise.RHO_MIX
        assert np.allclose(np.diag(np.diag(m)), m)
        assert m[1, 1] == m[2, 2] == 0.5

    def test_rho_dist_structure(self):
        m = noise.rho_dist().matrix
        assert np.array_equal(m, noise.RHO_DIST)
        assert np.trace(m).real == pytest.approx(1.0)
        assert np.trace(m @ m).real == pytest.approx(0.625)  # overlap 1/2 between the two kets
        assert certify.derived_batch(m[None])["witness"][0] == pytest.approx(1.0, abs=1e-12)


class TestDephasing:
    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_interpolates_singlet_coherence(self, eta):
        m = noise.dephased_singlets(eta)
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
        with pytest.raises(qmath.QmathError):
            noise.dephased_singlets(1.2)


class TestDistinguishability:
    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_witness_law(self, v):
        w = certify.derived_batch(noise.distinguishable_states([v]))["witness"][0]
        assert w == pytest.approx(1 - 2 * v, abs=1e-12)

    def test_endpoints(self):
        ends = noise.distinguishable_states([1.0, 0.0])
        assert np.allclose(ends[0], circuit.singlet().density().matrix)
        assert np.allclose(ends[1], noise.RHO_DIST)


class TestMixAndBaseline:
    def test_baseline_reproduces_reference_witness(self):
        w = certify.derived_batch(noise.baseline_states([0.0]))["witness"][0]
        assert w == pytest.approx(-0.72, abs=1e-12)

    @given(unit)
    @settings(max_examples=30, deadline=None)
    def test_baseline_witness_is_scaled_ideal_law(self, eta):
        w = certify.derived_batch(noise.baseline_states([eta]))["witness"][0]
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
    @example(0.0, 0.0)
    @example(0.0, 1.0)
    @example(1.0, 0.0)
    @example(1.0, 1.0)
    @settings(max_examples=40)
    def test_equal_to_the_channel_compositions(self, x, w):
        # Each state, one or a stack with both endpoints, is also a density matrix
        # by the check a state file passes: the families are built unchecked.
        s = circuit.singlet().density().matrix
        assert np.array_equal(noise.RHO_MIX, _old_rho_mix())
        assert np.array_equal(noise.rho_dist().matrix, _old_rho_dist())
        baseline = _old_dephase(_old_mix(s, _old_rho_mix(), w), x)
        for state, matrix in [
            (noise.dephased_singlets(x), _old_dephase(s, x)),
            (noise.distinguishable_states(x), _old_mix(s, _old_rho_dist(), x)),
            (noise.baseline_states(x, w), baseline),
        ]:
            assert np.array_equal(state, matrix)
            qmath.check_density(state)
        grid = [0.0, x, 1.0]
        for stack in (noise.dephased_singlets(grid), noise.distinguishable_states(grid),
                      noise.baseline_states(grid, w)):
            assert qmath.check_density(stack).shape == (3, 4, 4)

    def test_returned_states_share_no_memory_with_constants(self):
        states = [noise.rho_dist().matrix] + [
            f(x) for f in (noise.dephased_singlets, noise.distinguishable_states,
                           noise.baseline_states) for x in (0.0, 1.0, [0.0, 1.0])]
        states += [noise.baseline_states(0.0, 1.0), noise.baseline_states(1.0, 0.0)]
        for rho in states:
            assert rho.flags.writeable
            assert not any(np.shares_memory(rho, c) for c in CONSTANTS)
        for c in CONSTANTS:
            assert not c.flags.writeable

    def test_out_of_range_parameters(self):
        for call in (lambda: noise.baseline_states(1.5), lambda: noise.baseline_states(0.5, -0.1),
                     lambda: noise.distinguishable_states(float("nan"))):
            with pytest.raises(qmath.QmathError):
                call()


FAMILIES = {
    "eta": noise.dephased_singlets,
    "v": noise.distinguishable_states,
    "baseline": lambda x: noise.baseline_states(x, 0.7),
}


class TestStackedFamilies:
    """Each family maps a parameter array to one stack, member for member the
    state of its one parameter."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_members_equal_their_own_parameter(self, family):
        stacked = FAMILIES[family]
        grid = np.concatenate([np.linspace(0.0, 1.0, 21),
                               np.random.default_rng(5).random(50), [0.0, 1.0]])
        states = stacked(grid)
        assert states.shape == (len(grid), 4, 4)
        qmath.check_density(states)
        for x, rho in zip(grid, states):
            assert np.array_equal(rho, stacked(float(x)))
        assert np.array_equal(stacked(grid.reshape(-1, 1)), states[:, None])
        assert stacked(0.3).shape == (4, 4)

    @pytest.mark.parametrize("family", ["baseline"])
    def test_members_equal_the_single_state_views(self, family):
        # noise.baseline_state stays as a DensityMatrix view for the benchmark tests.
        grid = np.linspace(0.0, 1.0, 21)
        states = FAMILIES[family](grid)
        for x, rho in zip(grid, states):
            assert np.array_equal(rho, noise.baseline_state(float(x), 0.7).matrix)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.25, float("inf")])
    def test_a_bad_entry_is_named(self, family, bad):
        name = "v" if family == "v" else "eta"
        with pytest.raises(qmath.QmathError, match=rf"^{name} = {bad!r} outside \[0, 1\]$"):
            FAMILIES[family]([0.0, 0.5, bad, 1.0])
