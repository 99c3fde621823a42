import json

import numpy as np
import pytest

from gmesim import cli, noise, photonic, qmath


class TestTypes:
    # A state file is checked by its reader with check_density, on one matrix here.
    def test_density_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(qmath.QmathError, match="not Hermitian"):
            qmath.check_density(m)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(qmath.QmathError, match="negative eigenvalue"):
            qmath.check_density(m)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(qmath.QmathError, match="trace is 4.0, expected 1"):
            qmath.check_density(np.eye(4, dtype=complex))

    def test_density_of_pure_state(self):
        psi = qmath.PureState(np.array([1, 0, 0, 1j]) / np.sqrt(2))
        rho = psi.density()
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0)
        v = psi.amplitudes
        assert np.vdot(v, rho.matrix @ v).real == pytest.approx(1.0)

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
        with pytest.raises(qmath.QmathError, match="not Hermitian"):
            qmath.check_density(bad)
        bad = good.copy()
        bad[0] *= 2
        with pytest.raises(qmath.QmathError, match="trace"):
            qmath.check_density(bad)

    def test_nan_rejected(self):
        with pytest.raises(qmath.QmathError, match="NaN or Inf"):
            qmath.check_density(np.diag([np.nan, 0, 0, 1]))


class TestConstants:
    def test_pauli_algebra(self):
        assert np.allclose(qmath.SIGMA_X @ qmath.SIGMA_Y, 1j * qmath.SIGMA_Z)
        assert np.allclose(qmath.HADAMARD @ qmath.HADAMARD, np.eye(2))


class TestPartialOps:
    def test_partial_transpose_rejects_wrong_dims(self, tmp_path):
        # A state file is a two-qubit state only with dims (2, 2) or none.
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"dims": [4], "matrix": cli.state_json(np.eye(4) / 4)["matrix"]}))
        with pytest.raises(cli.ParseError, match=r"got dims \[4\] and a matrix of shape \(4, 4\)$"):
            cli.load_state_json(str(p))


# Every entry point that takes a parameter in [0, 1].  The keys "simulate_pipeline",
# "dephased_singlet" and "distinguishable_state" label a one-point call of a stacked
# kernel: simulate_pipeline_grid, dephased_singlets and distinguishable_states.
UNIT_PARAMETERS = {
    "build_cz_network": photonic.build_cz_network,
    "coupler_unitary": photonic.coupler_unitary,
    "hom_coincidence": lambda x: photonic.hom_coincidence([0.5, x]),
    "simulate_pipeline": lambda x: photonic.simulate_pipeline_grid([x]),
    "simulate_pipeline_grid": lambda x: photonic.simulate_pipeline_grid([0.5, x]),
    "hom_scan": lambda x: photonic.hom_scan([0.5, x]),
    "dephased_singlet": noise.dephased_singlets,
    "distinguishable_state": noise.distinguishable_states,
    "baseline_state.eta": noise.baseline_state,
    "baseline_state.weight": lambda x: noise.baseline_state(0.5, weight=x),
    "baseline_witness_zero_crossing": noise.baseline_witness_zero_crossing,
}


class TestRangeChecks:
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), -0.1, 1.1, 0.0, 1.0])
    @pytest.mark.parametrize("entry", sorted(UNIT_PARAMETERS))
    def test_unit_parameters_share_one_check(self, entry, x):
        call = UNIT_PARAMETERS[entry]
        if 0.0 <= x <= 1.0:
            call(x)
        else:
            with pytest.raises(qmath.OutOfRange, match=r"= .* outside \[0, 1\]$"):
                call(x)

    def test_one_out_of_range_class(self):
        assert issubclass(qmath.OutOfRange, qmath.QmathError)
        assert qmath.check_unit(1, "x") == 1.0 and type(qmath.check_unit(1, "x")) is float

    def test_an_array_is_checked_at_once(self):
        out = qmath.check_unit([0, 0.5, 1], "x")
        assert out.dtype == float and out.tolist() == [0.0, 0.5, 1.0]
        assert qmath.check_unit([], "x").shape == (0,)
        with pytest.raises(qmath.OutOfRange, match=r"^x = nan outside \[0, 1\]$"):
            qmath.check_unit(np.array([[0.1, 0.2], [np.nan, 2.0]]), "x")
