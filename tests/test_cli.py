import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmesim import certify, circuit, cli, noise, qmath


def run(*argv):
    return cli.main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def load_rho(state):
    """The (1, 4, 4) stack of a written ``rho_hat``: repr'd floats read back exactly."""
    return np.array([[[complex(re, im) for re, im in row] for row in state["matrix"]]])


def _replicas(n, replicas, seed):
    """The (replicas, S, 4) Poisson redraws of the counts ``n`` that ``certify``
    bootstraps with ``--seed seed``: one draw from the stream of SeedSequence
    ``seed`` with spawn key (0,)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.poisson(n, size=(replicas, *n.shape))


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


COUNTS_HEADER = "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"


def axis_token(v):
    """A general setting axis as a hand-written counts CSV spells it: three "%.17g"
    floats joined by ":"."""
    return ":".join("%.17g" % x for x in v)


def hand_written_counts(path, bases, n):
    """A counts CSV of the setting tuples ``bases`` (S, 2, 3) and counts ``n`` (S, 4),
    every axis spelled as ``axis_token`` spells it."""
    path.write_text(COUNTS_HEADER + "".join(
        f"{axis_token(a)},{axis_token(b)},{','.join(map(str, row))}\n"
        for (a, b), row in zip(bases, n)))


def config_from_json(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return cli.load_config(str(path), {})


class TestConfig:
    def test_defaults_validate(self):
        cli.ExperimentConfig().validate()

    def test_replicas_cap_validates(self):
        cli.ExperimentConfig(mc_replicas=cli.MAX_MC_REPLICAS).validate()
        with pytest.raises(cli.ParseError, match="mc_replicas"):
            cli.ExperimentConfig(mc_replicas=cli.MAX_MC_REPLICAS + 1).validate()

    def test_main_dispatches_to_the_command_bound_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_circuit", lambda cfg, args: calls.append(cfg) or 0)
        assert run("--seed", "7", "--out", str(tmp_path), "circuit", "--phi", "0.5") == 0
        assert [(c.seed, c.output_dir, c.phi) for c in calls] == [(7, str(tmp_path), 0.5)]
        assert not any(tmp_path.iterdir())

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"nonsense": 1}')
        with pytest.raises(cli.ParseError):
            cli.load_config(str(p), {})

    def test_grid_range_checked(self):
        cfg = cli.ExperimentConfig(eta_grid=[0.0, 1.5])
        with pytest.raises(cli.ParseError):
            cfg.validate()

    def test_hash_ignores_output_dir(self):
        a = cli.ExperimentConfig(output_dir="x")
        b = cli.ExperimentConfig(output_dir="y")
        assert a.hash == b.hash
        assert a.hash != cli.ExperimentConfig(seed=1).hash

    # Recorded when the hash was built with dataclasses.asdict; reading the fields
    # directly must serialize the same values.
    @pytest.mark.parametrize("make, digest", [
        (lambda tmp: cli.ExperimentConfig(), "1d804693580bb46b"),
        (lambda tmp: cli.ExperimentConfig(
            phi=0.7, eta_grid=[0.1, 0.2], v_grid=[0.3], gamma_grid=[0.5, 1.0],
            bs="experimental", counts_per_setting=500, mc_replicas=20, seed=7,
            baseline_weight=0.25, coherence_sigma_ps=100.0, output_dir="elsewhere"),
         "4070f15ca4819e4e"),
        (lambda tmp: config_from_json(tmp, '{"phi": 3}'), "be08a4d21b940582"),
        (lambda tmp: cli.ExperimentConfig(gamma_grid=[k / 99 for k in range(100)]),
         "ce99457557780bd7"),
    ], ids=["default", "every-field", "phi-json-int", "gamma-100"])
    def test_hash_is_pinned(self, tmp_path, make, digest):
        cfg = make(tmp_path)
        cfg.validate()
        assert cfg.hash == digest

    def test_flag_overrides_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"seed": 5}')
        cfg = cli.load_config(str(p), {"seed": 9})
        assert cfg.seed == 9


# One command that reads each config field (set in a config file) and each model flag,
# with two valid values.  Grids stay at three points and fits small.
SMALL_GRIDS = {"eta_grid": [0.0, 0.5, 1.0], "v_grid": [0.0, 0.5, 1.0],
               "gamma_grid": [0.0, 0.5, 1.0]}
NO_FITS = ["--counts-per-setting", "0"]
SETTING_READERS = {
    "phi": (["circuit"], 0.7, 2.5),
    "eta_grid": (["scan", "--param", "eta", *NO_FITS], [0.0, 0.5], [0.2, 0.9]),
    "v_grid": (["scan", "--param", "v", *NO_FITS], [0.0, 0.5], [0.2, 0.9]),
    "gamma_grid": (["hom-scan"], [0.0, 1.0], [0.3, 0.6]),
    "bs": (["hom-scan"], "ideal", "experimental"),
    "counts_per_setting": (["simulate-counts"], 100, 200),
    "mc_replicas": (["certify", "--state", "{state}", "--counts-per-setting", "200"], 2, 5),
    "seed": (["simulate-counts", "--counts-per-setting", "100"], 1, 2),
    "baseline_weight": (["scan", "--param", "eta", *NO_FITS], 0.3, 0.6),
    "coherence_sigma_ps": (["hom-scan"], 100.0, 300.0),
    "--reflectivity": (["photonic-verify"], 0.333, 0.337),
    "--eta": (["simulate-counts", "--model", "dephased", "--counts-per-setting", "100"],
              0.2, 0.8),
    "--v": (["simulate-counts", "--model", "distinguishable", "--counts-per-setting", "100"],
            0.2, 0.8),
}


def stripped_outputs(out, echo: str) -> dict:
    """Every output file under ``out`` without its metadata: the ``meta`` block of a JSON
    file and the ``#`` lines of a CSV.  A JSON field named ``echo``, which only repeats the
    setting, is dropped too."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = read_json(path)
            files[path.name] = {k: v for k, v in doc.items() if k not in ("meta", echo)}
        else:
            files[path.name] = [ln for ln in path.read_text().splitlines()
                                if not ln.startswith("#")]
    return files


class TestEverySettingIsRead:
    def test_every_config_field_has_a_reader(self):
        names = {f.name for f in dataclasses.fields(cli.ExperimentConfig)} - {"output_dir"}
        assert names == {k for k in SETTING_READERS if not k.startswith("--")}

    @pytest.mark.parametrize("setting", sorted(SETTING_READERS))
    def test_the_setting_changes_an_output(self, tmp_path, setting):
        state = tmp_path / "singlet.json"
        state.write_text(json.dumps(cli.state_json(noise.SINGLET), default=np.ndarray.tolist))
        command, *values = SETTING_READERS[setting]
        command = [a.replace("{state}", str(state)) for a in command]
        outputs = []
        for k, value in enumerate(values):
            cfg, argv = dict(SMALL_GRIDS), list(command)
            if setting.startswith("--"):
                argv += [setting, str(value)]
            else:
                cfg[setting] = value
            (tmp_path / f"cfg{k}.json").write_text(json.dumps(cfg))
            out = tmp_path / f"out{k}"
            assert run("--config", str(tmp_path / f"cfg{k}.json"), "--out", str(out), *argv) == 0
            outputs.append(stripped_outputs(out, setting.lstrip("-")))
        assert outputs[0].keys() == outputs[1].keys() and outputs[0] != outputs[1]


class TestCircuitCommand:
    def test_summary_values(self, tmp_path):
        assert run("--out", str(tmp_path), "circuit") == 0
        s = read_json(tmp_path / "summary.json")
        assert s["witness"] == pytest.approx(-1.0, abs=1e-9)
        assert s["chsh_max"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert s["negativity"] == pytest.approx(0.5, abs=1e-9)
        assert "config_hash" in s["meta"]

    def test_phi_zero(self, tmp_path):
        assert run("--out", str(tmp_path), "circuit", "--phi", "0") == 0
        s = read_json(tmp_path / "summary.json")
        assert s["witness"] == pytest.approx(1.0, abs=1e-9)
        assert s["negativity"] == pytest.approx(0.0, abs=1e-9)

    def test_phi_half_pi_negativity(self, tmp_path):
        assert run("--out", str(tmp_path), "circuit", "--phi", str(math.pi / 2)) == 0
        s = read_json(tmp_path / "summary.json")
        assert s["negativity"] == pytest.approx(math.sqrt(2) / 4, abs=1e-9)

    def test_state_files_written(self, tmp_path):
        run("--out", str(tmp_path), "circuit")
        full = read_json(tmp_path / "state_full.json")
        assert len(full["state"]["amplitudes"]) == 16
        assert len(full["circuit"]["gates"]) == 7
        spins = read_json(tmp_path / "state_spins.json")
        assert len(spins["matrix"]) == 4


class TestPhotonicVerify:
    def test_ideal_passes(self, tmp_path):
        assert run("--out", str(tmp_path), "photonic-verify") == 0
        d = read_json(tmp_path / "cz_verification.json")
        assert d["cz_check_passed"] is True
        assert d["process_fidelity_to_cz"] == pytest.approx(1.0, abs=1e-9)
        assert d["success_probabilities"] == pytest.approx([1 / 9] * 4, abs=1e-9)
        assert d["hom_visibility"] == pytest.approx(0.8, abs=1e-9)

    def test_experimental_preset_reports_visibility(self, tmp_path):
        assert run("--out", str(tmp_path), "photonic-verify", "--bs", "experimental") == 0
        d = read_json(tmp_path / "cz_verification.json")
        assert d["hom_visibility_ideal_theory"] == 0.8
        assert 0.7 < d["hom_visibility"] < 0.9

    def test_writes_only_the_verification_json(self, tmp_path):
        assert run("--out", str(tmp_path), "photonic-verify") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cz_verification.json"]

    def test_bs_flag_with_reflectivity_is_parse_error(self, tmp_path, capsys):
        assert run("--out", str(tmp_path / "o"), "photonic-verify", "--bs", "experimental",
                   "--reflectivity", "0.4") == 2
        err = capsys.readouterr().err
        assert err == "error: argument --reflectivity: not allowed with argument --bs\n"
        assert not (tmp_path / "o").exists()
        # A preset from the config file is a default that --reflectivity overrides.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bs": "experimental"}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "photonic-verify",
                   "--reflectivity", "0.34") == 0
        assert read_json(tmp_path / "cz_verification.json")["reflectivity"] == 0.34

    def test_half_reflectivity_fails_with_exit_4(self, tmp_path, capsys):
        code = run("--out", str(tmp_path), "photonic-verify", "--reflectivity", "0.5")
        assert code == 4
        assert "CZ" in capsys.readouterr().err
        d = read_json(tmp_path / "cz_verification.json")
        assert d["cz_check_passed"] is False
        assert "diagnostic" in d


class TestScan:
    def test_eta_scan_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                                   "counts_per_setting": 0}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan",
                   "--param", "eta") == 0
        header, rows = read_csv_rows(tmp_path / "scan_eta.csv")
        assert header[0] == "eta"
        w = [float(r[1]) for r in rows]
        assert w == pytest.approx([-1, -0.5, 0, 0.5, 1], abs=1e-9)
        s = read_json(tmp_path / "scan_eta_summary.json")
        assert s["baseline_witness_zero_crossing"] == pytest.approx(0.419, abs=1e-3)

    def test_no_crossing_below_half_weight_is_null(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 1.0], "baseline_weight": 0.3,
                                   "counts_per_setting": 0}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan",
                   "--param", "eta") == 0
        s = read_json(tmp_path / "scan_eta_summary.json")
        assert s["baseline_witness_zero_crossing"] is None

    def test_v_scan_single_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v_grid": [1.0], "counts_per_setting": 0}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan",
                   "--param", "v") == 0
        _, rows = read_csv_rows(tmp_path / "scan_v.csv")
        assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-9)

    def test_scan_with_tomography_writes_per_point_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.6], "counts_per_setting": 2000}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan",
                   "--param", "eta") == 0
        d = read_json(tmp_path / "tomography_eta_01.json")
        assert d["eta"] == 0.6
        assert d["converged"] is True
        assert d["fidelity_to_truth"] > 0.98

    def test_scan_tomography_files_carry_iterations(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v_grid": [0.0, 0.5, 1.0], "counts_per_setting": 2000}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan", "--param", "v") == 0
        for idx in range(3):
            d = read_json(tmp_path / f"tomography_v_{idx:02d}.json")
            assert d["converged"] is True
            assert isinstance(d["iterations"], int) and d["iterations"] > 0

    def test_tomography_files_report_dropped_settings(self, tmp_path):
        # One count per setting leaves some of the nine Pauli rows all zero; the
        # fit of each point then sees an incomplete set and must say so.
        dropped = {}
        for counts in (1, 10**4):
            out = tmp_path / str(counts)
            assert run("--out", str(out), "scan", "--param", "eta",
                       "--counts-per-setting", str(counts)) == 0
            dropped[counts] = [read_json(out / f"tomography_eta_{idx:02d}.json")["dropped_settings"]
                               for idx in range(len(cli.DEFAULT_GRID))]
        assert all(type(d) is int for d in dropped[1] + dropped[10**4])
        assert all(1 <= d <= 8 for d in dropped[1])
        assert dropped[10**4] == [0] * len(cli.DEFAULT_GRID)

    def test_a_point_without_counts_ends_at_its_start_and_exits_3(self, tmp_path):
        # At seed 91 and one count per setting, grid point 12 (eta 0.6) draws nothing:
        # its fit stays at I/4, unconverged, and every file is still written.
        assert run("--seed", "91", "--out", str(tmp_path), "scan", "--param", "eta",
                   "--counts-per-setting", "1") == 3
        fits = [read_json(tmp_path / f"tomography_eta_{idx:02d}.json")
                for idx in range(len(cli.DEFAULT_GRID))]
        empty = fits.pop(12)
        assert (empty["converged"], empty["iterations"], empty["log_likelihood"],
                empty["dropped_settings"]) == (False, 0, 0.0, 9)
        assert np.array_equal(load_rho(empty["rho_hat"])[0], np.eye(4) / 4)
        assert all(d["iterations"] > 0 and d["dropped_settings"] < 9 for d in fits)
        assert (tmp_path / "scan_eta.csv").is_file()
        assert (tmp_path / "scan_eta_summary.json").is_file()

    def test_config_hash_is_computed_once(self, tmp_path, monkeypatch):
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda blob: calls.append(blob) or sha256(blob))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.5, 1.0], "counts_per_setting": 500}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan", "--param", "eta") == 0
        assert len(list(tmp_path.glob("tomography_eta_*.json"))) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("param", ["eta", "v"])
    def test_rows_equal_the_single_state_kernels(self, tmp_path, param):
        assert run("--out", str(tmp_path), "scan", "--param", param,
                   "--counts-per-setting", "0") == 0
        _, rows = read_csv_rows(tmp_path / f"scan_{param}.csv")
        cfg = cli.ExperimentConfig()
        assert len(rows) == len(cfg.eta_grid) == len(cfg.v_grid) == 21
        for row, x in zip(rows, cfg.eta_grid if param == "eta" else cfg.v_grid):
            ideal = (noise.dephased_singlets([x]) if param == "eta"
                     else noise.distinguishable_states([x]))
            baseline = noise.baseline_states([x], cfg.baseline_weight) if param == "eta" else ideal
            q = certify.derived_batch(ideal)
            assert [float(v) for v in row] == [
                float(x), q["witness"][0], certify.derived_batch(baseline)["witness"][0],
                q["chsh_max"][0], q["negativity"][0], q["min_pt_eigenvalue"][0]]

    def test_reported_quantities_derive_from_the_reported_fit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.4, 1.0], "counts_per_setting": 2000}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan", "--param", "eta") == 0
        for idx, eta in enumerate([0.0, 0.4, 1.0]):
            d = read_json(tmp_path / f"tomography_eta_{idx:02d}.json")
            q = certify.derived_batch(load_rho(d["rho_hat"]), noise.dephased_singlets([eta]))
            assert d["ppt_eigenvalues"] == q["ppt_eigenvalues"][0].tolist()
            assert d["negativity"] == q["negativity"][0]
            assert d["fidelity_to_truth"] == q["fidelity_to_target"][0]

    def test_empty_grid_is_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": []}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "scan",
                   "--param", "eta") == 2


# Each subcommand with the last file it writes.  Every command holds its states as
# checked arrays, a --state file included.
COMMANDS = {
    "circuit": (["circuit"], "summary.json"),
    "photonic-verify": (["photonic-verify"], "cz_verification.json"),
    "scan-eta": (["scan", "--param", "eta"], "tomography_eta_20.json"),
    "scan-v": (["scan", "--param", "v"], "tomography_v_20.json"),
    "hom-scan": (["hom-scan"], "hom_summary.json"),
    "simulate-counts": (["simulate-counts", "--model", "circuit"], "counts.csv"),
    "certify-counts": (["certify", "--counts", "{tmp}/counts.csv"], "verdict.json"),
    "certify-state": (["certify", "--state", "{tmp}/state.json"], "verdict.json"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_build_no_density_matrix(tmp_path, monkeypatch, command):
    argv, written = COMMANDS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"counts_per_setting": 200, "mc_replicas": 10}))
    (tmp_path / "state.json").write_text(
        json.dumps(cli.state_json(noise.SINGLET), default=np.ndarray.tolist))
    assert run("--out", str(tmp_path), "simulate-counts") == 0
    built = []
    post_init = qmath.DensityMatrix.__post_init__
    monkeypatch.setattr(qmath.DensityMatrix, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    out = tmp_path / "out"
    assert run("--config", str(cfg), "--out", str(out),
               *(a.replace("{tmp}", str(tmp_path)) for a in argv)) == 0
    assert (out / written).is_file()
    assert not built
    noise.rho_dist()  # the counter counts
    assert len(built) == 1


class TestHomScan:
    def test_outputs(self, tmp_path):
        assert run("--out", str(tmp_path), "hom-scan") == 0
        header, rows = read_csv_rows(tmp_path / "hom_scan.csv")
        assert header == ["gamma", "delay_ps", "coincidence_prob"]
        assert float(rows[0][2]) == pytest.approx(5 / 9, abs=1e-9)
        assert float(rows[-1][2]) == pytest.approx(1 / 9, abs=1e-9)
        vh, vrows = read_csv_rows(tmp_path / "v_of_gamma.csv")
        assert vh == ["gamma", "v"]
        assert float(vrows[0][1]) == pytest.approx(0.0, abs=1e-9)
        assert float(vrows[-1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_grid_writes_header_only_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_grid": []}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "hom-scan") == 0
        assert read_csv_rows(tmp_path / "hom_scan.csv") == (
            ["gamma", "delay_ps", "coincidence_prob"], [])
        assert read_csv_rows(tmp_path / "v_of_gamma.csv") == (["gamma", "v"], [])
        summary = json.loads((tmp_path / "hom_summary.json").read_text())
        assert summary["visibility"] == pytest.approx(0.8, abs=1e-12)


class TestSimulateCountsAndCertify:
    def test_counts_csv_round_trip(self, tmp_path):
        assert run("--out", str(tmp_path), "--seed", "3", "simulate-counts",
                   "--model", "singlet") == 0
        path = tmp_path / "counts.csv"
        data = cli.load_counts_csv(str(path))
        assert len(data) == 9
        singlet = cli.model_state("singlet", cli.ExperimentConfig(), None, None)
        direct = certify.simulate_counts_batch(singlet[None], certify.PAULI_SETTINGS, 10_000, [3])
        assert np.array_equal(data.n, direct[0])
        assert np.array_equal(data.bases, certify.PAULI_SETTINGS)

    def test_counts_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\nX,X,1,2,three,4\n")
        with pytest.raises(cli.ParseError, match=":2"):
            cli.load_counts_csv(str(p))

    def test_counts_short_row_reports_line(self, tmp_path):
        # A row with more than four counts is rejected too, not cut to four.
        p = tmp_path / "short.csv"
        for row, got in (("X,X,1,2", 2), ("X,X,1,2,3,4,5", 5)):
            p.write_text(f"setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\nX,Y,1,2,3,4\n{row}\n")
            with pytest.raises(cli.ParseError, match=f":3: expected 4 counts, got {got}"):
                cli.load_counts_csv(str(p))
            assert run("--out", str(tmp_path / "o"), "certify", "--counts", str(p)) == 2

    def test_counts_axis_not_unit_reports_line(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("# comment\nsetting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
                     "X,Y,1,2,3,4\nX,nan:0:1,1,2,3,4\n")
        with pytest.raises(cli.ParseError, match=r":4: axis b is not a finite unit Bloch "
                                                 r"vector: \[nan, 0.0, 1.0\]"):
            cli.load_counts_csv(str(p))
        # A quoted field that spans lines 2-3 moves no later row's line number.
        p.write_text('setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"X\n",X,1,2,3,4\nX,Y,1,2,3,-4\n')
        with pytest.raises(cli.ParseError, match=":4: negative count"):
            cli.load_counts_csv(str(p))
        # A line that starts with "#" after the header is data, here the end of
        # a quoted setting axis.
        p.write_text('setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"X\n# note",X,1,2,3,4\n'
                     'X,Y,1,2,3,-4\n')
        with pytest.raises(cli.ParseError, match=r":3: bad setting axis 'X\\n# note'"):
            cli.load_counts_csv(str(p))

    def test_counts_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(cli.ParseError, match=":1"):
            cli.load_counts_csv(str(p))
        # A header column beyond the six is no count column either.
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm,extra\nX,X,1,2,3,4,5\n")
        with pytest.raises(cli.ParseError, match=":1: bad counts header"):
            cli.load_counts_csv(str(p))

    def test_bloch_vector_settings_parse(self, tmp_path):
        p = tmp_path / "counts.csv"
        p.write_text(
            "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
            "Z,0:0:1,10,10,10,10\n"
            "0.70710678118654752:0:0.70710678118654752,X,10,10,10,10\n"
        )
        data = cli.load_counts_csv(str(p))
        assert np.allclose(data.bases[0, 1], [0, 0, 1])
        assert data.bases[1, 0, 0] == pytest.approx(1 / math.sqrt(2))

    def test_certify_singlet_is_certified_bell(self, tmp_path):
        run("--out", str(tmp_path), "--seed", "8", "simulate-counts", "--model", "singlet")
        assert run("--out", str(tmp_path), "--seed", "8", "certify",
                   "--counts", str(tmp_path / "counts.csv"), "--mc-replicas", "25") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["entanglement_verdict"] == "certified_bell"
        assert v["quantities"]["chsh_fixed"] > 2.7

    def test_certify_eta06_baseline_is_certified_ppt(self, tmp_path):
        run("--out", str(tmp_path), "--seed", "8", "simulate-counts",
            "--model", "baseline", "--eta", "0.6")
        assert run("--out", str(tmp_path), "--seed", "8", "certify",
                   "--counts", str(tmp_path / "counts.csv"), "--mc-replicas", "25") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["entanglement_verdict"] == "certified_ppt"
        assert v["quantities"]["witness"] >= 0

    def test_certify_eta1_is_inconclusive(self, tmp_path):
        # A boundary state: its min PT eigenvalue is 0, and the estimate here is
        # -0.0045 +- 0.0024, so it is neither certified entangled nor separable.
        run("--out", str(tmp_path), "--seed", "8", "simulate-counts",
            "--model", "dephased", "--eta", "1.0")
        assert run("--out", str(tmp_path), "--seed", "8", "certify",
                   "--counts", str(tmp_path / "counts.csv"), "--mc-replicas", "25") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["entanglement_verdict"] == "inconclusive"

    @pytest.mark.parametrize("seed, replicas, argv, verdict", [
        ("8", "25", ("--model", "distinguishable", "--v", "0.6"), "certified_witness"),
        # Min PT 0.25: strictly PPT, and a strictly PPT two-qubit state is separable.
        ("8", "25", ("--model", "maximally-mixed"), "separable_certified"),
        # Entangled (true min PT -0.0075), but its estimate -0.0077 +- 0.0029
        # at the default seed and replicas is 2.7 sigma from zero.
        ("12345", "100", ("--model", "dephased", "--eta", "0.985"), "inconclusive"),
    ], ids=["witness", "separable", "inconclusive"])
    def test_verdict_classes(self, tmp_path, seed, replicas, argv, verdict):
        run("--out", str(tmp_path), "--seed", seed, "simulate-counts", *argv)
        assert run("--out", str(tmp_path), "--seed", seed, "certify",
                   "--counts", str(tmp_path / "counts.csv"), "--mc-replicas", replicas) == 0
        assert read_json(tmp_path / "verdict.json")["entanglement_verdict"] == verdict

    def test_reported_quantities_derive_from_the_reported_fit(self, tmp_path):
        run("--out", str(tmp_path / "c"), "--seed", "3", "simulate-counts",
            "--model", "baseline", "--eta", "0.6")
        assert run("--out", str(tmp_path), "--seed", "3", "certify", "--counts",
                   str(tmp_path / "c" / "counts.csv"), "--mc-replicas", "10") == 0
        v = read_json(tmp_path / "verdict.json")
        q = certify.derived_batch(load_rho(v["rho_hat"]), noise.SINGLET)
        assert v["quantities"] == {key: val[0].tolist() for key, val in q.items()}

    def test_point_estimate_equals_a_standalone_fit(self, tmp_path):
        # The point estimate is member 0 of the bootstrap stack; it must be the
        # fit of the counts alone.
        run("--out", str(tmp_path), "--seed", "3", "simulate-counts",
            "--model", "baseline", "--eta", "0.6")
        assert run("--out", str(tmp_path), "--seed", "3", "certify", "--counts",
                   str(tmp_path / "counts.csv"), "--mc-replicas", "10") == 0
        v = read_json(tmp_path / "verdict.json")
        data = cli.load_counts_csv(str(tmp_path / "counts.csv"))
        alone = certify.fit(data.bases, data.n[None], noise.SINGLET)
        assert np.max(np.abs(load_rho(v["rho_hat"]) - alone["rho"])) <= 1e-9
        summary = {key: val[0].tolist() for key, val in alone.items()
                   if key not in certify.FIT_FIELDS}
        assert summary.keys() == v["quantities"].keys()
        for key, val in summary.items():
            np.testing.assert_allclose(v["quantities"][key], val, rtol=0, atol=1e-9)
        assert v["entanglement_verdict"] == cli._verdict(summary, v["error_intervals"])

    def test_certify_from_state_json(self, tmp_path):
        run("--out", str(tmp_path), "circuit")
        assert run("--out", str(tmp_path), "--seed", "4", "certify",
                   "--state", str(tmp_path / "state_canonical.json"),
                   "--mc-replicas", "25") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["entanglement_verdict"] == "certified_bell"

    def test_certify_without_input_is_parse_error(self, tmp_path):
        assert run("--out", str(tmp_path), "certify") == 2

    def test_certify_accepts_a_tetrahedral_setting_set(self, tmp_path):
        # The 16 pairs of tetrahedral axes are informationally complete but hold
        # no Pauli pair; a full-rank source (Werner, p = 0.5) keeps the fit short.
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        werner = 0.5 * noise.SINGLET + 0.5 * np.eye(4) / 4
        bases = [[a, b] for a in tet for b in tet]
        counts = certify.simulate_counts_batch(werner[None], bases, 10_000, [5])
        hand_written_counts(tmp_path / "counts.csv", bases, counts[0])
        assert run("--out", str(tmp_path), "certify", "--counts", str(tmp_path / "counts.csv"),
                   "--mc-replicas", "10") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["converged"] and v["mc_converged"] == 10 and v["dropped_settings"] == 0
        assert v["quantities"]["fidelity_to_target"] == pytest.approx(0.625, abs=0.01)

    def test_a_fit_that_gives_up_exits_3(self, tmp_path, monkeypatch):
        # From this nearly pure start the first plain step of the fit lowers the
        # likelihood of these counts by more than rounding: the fit gives up.
        rng = np.random.default_rng([239, 17])
        truth, start = (qmath.PureState(v / np.linalg.norm(v)).density()
                        for v in (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in "ab"))
        counts = certify.simulate_counts_batch(truth.matrix[None], certify.PAULI_SETTINGS, 1000,
                                               [239])
        cli.write_counts_csv(tmp_path / "counts.csv", cli.ExperimentConfig(), counts[0])
        factor = np.linalg.cholesky(0.999 * start.matrix + 0.001 * np.eye(4) / 4).conj().T
        monkeypatch.setattr(certify, "_START", certify._real_image(factor))
        assert run("--out", str(tmp_path), "certify", "--counts", str(tmp_path / "counts.csv"),
                   "--mc-replicas", "10") == 3
        v = read_json(tmp_path / "verdict.json")
        assert v["converged"] is False and v["iterations"] == 1

    def test_a_fit_whose_step_overflows_exits_3_quietly(self, tmp_path, capsys):
        # One step from I/4 makes this state nearly pure, and the next X^T X
        # overflows: the point fit gives up at its last finite iterate, with no
        # numpy warning and no traceback.
        p = tmp_path / "counts.csv"
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
                     "X,X,0,0,0,1786067403\nX,Y,0,0,965239467765831,0\nX,Z,0,2213,277,1\n"
                     "Y,X,0,14,1855,0\nY,Y,0,0,48964,128\nY,Z,24849029,0,256734,1\n"
                     "Z,X,0,0,0,27\nZ,Y,2,0,6244,0\nZ,Z,0,0,33330840,0\n")
        capsys.readouterr()
        assert run("--out", str(tmp_path), "certify", "--counts", str(p),
                   "--mc-replicas", "2") == 3
        assert capsys.readouterr().err == ""
        v = json.loads((tmp_path / "verdict.json").read_text(),
                       parse_constant=lambda c: pytest.fail(f"{c} in verdict.json"))
        assert v["converged"] is False and v["iterations"] <= 10

    @pytest.mark.parametrize("rows", [["ZZ"], [a + b for a in "XYZ" for b in "XYZ"][:-1]],
                             ids=["zz-only", "pauli-without-zz"])
    def test_incomplete_settings_are_named(self, tmp_path, capsys, rows):
        p = tmp_path / "counts.csv"
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
                     + "".join(f"{a},{b},10,20,30,40\n" for a, b in rows))
        assert run("--out", str(tmp_path / "o"), "certify", "--counts", str(p)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: settings not informationally complete")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("zero_row", [False, True], ids=["without-zz", "zero-xx-row"])
    def test_an_all_zero_row_is_no_setting(self, tmp_path, capsys, zero_row):
        # The Pauli pairs without Z Z are incomplete, with or without an all-zero X X row.
        p = tmp_path / "counts.csv"
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
                     + "".join(f"{a},{b},10,20,30,40\n" for a in "XYZ" for b in "XYZ"
                               if a + b != "ZZ") + ("X,X,0,0,0,0\n" if zero_row else ""))
        assert run("--out", str(tmp_path / "o"), "certify", "--counts", str(p),
                   "--mc-replicas", "5") == 2
        assert capsys.readouterr().err == (
            "error: settings not informationally complete: rank 15 of 16\n")
        assert not (tmp_path / "o").exists()

    def test_a_complete_set_drops_its_zero_row(self, tmp_path):
        run("--out", str(tmp_path), "--seed", "3", "simulate-counts", "--model", "singlet")
        p = tmp_path / "counts.csv"
        p.write_text(p.read_text() + "X,X,0,0,0,0\n")
        assert run("--out", str(tmp_path), "certify", "--counts", str(p),
                   "--mc-replicas", "5") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["dropped_settings"] == 1 and v["entanglement_verdict"] == "certified_bell"

    def test_negative_count_is_parse_error_with_line(self, tmp_path, capsys):
        run("--out", str(tmp_path), "--seed", "3", "simulate-counts", "--model", "singlet")
        lines = (tmp_path / "counts.csv").read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("Y,Z,"))
        lines[idx] = "Y,Z,10,-1,20,30"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        where = f"bad.csv:{idx + 1}: negative count"  # the file line, comments included
        assert lines[0].startswith("#")
        with pytest.raises(cli.ParseError, match=where):
            cli.load_counts_csv(str(bad))
        capsys.readouterr()
        assert run("--out", str(tmp_path / "v"), "certify", "--counts", str(bad)) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not (tmp_path / "v" / "verdict.json").exists()

    def test_the_first_bad_row_is_reported(self, tmp_path):
        # Each row is checked as it is read: its counts against the cap, each
        # axis, then the signs of its counts.
        p = tmp_path / "counts.csv"
        for rows, where in ((["X,X,1,-1,1,1", "nan:0:1,X,1,1,1,1"], ":2: negative count"),
                            (["nan:0:1,X,1,1,1,1", "X,X,1,-1,1,1"], ":2: axis a"),
                            ([f"X,nan:0:1,1,-1,1,{10**15 + 1}"], ":2: count above"),
                            (["X,nan:0:1,1,-1,1,1"], ":2: axis b")):
            p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n" + "\n".join(rows) + "\n")
            with pytest.raises(cli.ParseError, match=where):
                cli.load_counts_csv(str(p))

    def test_replicas_that_draw_no_counts_are_left_out(self, tmp_path, capsys):
        # One ++ count on each Pauli pair: at seed 365 one of ten replicas draws
        # nothing, and at seed 477 one of two does (the smallest such seeds).
        p = tmp_path / "one.csv"
        p.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"
                     + "".join(f"{a},{b},1,0,0,0\n" for a in "XYZ" for b in "XYZ"))
        n = cli.load_counts_csv(str(p)).n
        empty = {seed: np.flatnonzero(~_replicas(n, replicas, seed).any(axis=(1, 2))).tolist()
                 for seed, replicas in ((365, 10), (477, 2))}
        assert empty == {365: [8], 477: [0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc_replicas": 10}))
        assert run("--config", str(cfg), "--seed", "365", "--out", str(tmp_path / "a"),
                   "certify", "--counts", str(p)) == 0
        v = read_json(tmp_path / "a" / "verdict.json")
        assert v["mc_replicas"] == 10 and v["mc_converged"] == 9
        assert "NaN" not in (tmp_path / "a" / "verdict.json").read_text()
        cfg.write_text(json.dumps({"mc_replicas": 2}))
        capsys.readouterr()
        assert run("--config", str(cfg), "--seed", "477", "--out", str(tmp_path / "b"),
                   "certify", "--counts", str(p)) == 2
        assert capsys.readouterr().err == "error: only 1 of 2 bootstrap replicas drew counts\n"
        assert not (tmp_path / "b").exists()

    def test_certify_reports_fit_diagnostics(self, tmp_path):
        run("--out", str(tmp_path), "--seed", "8", "simulate-counts", "--model", "singlet")
        assert run("--out", str(tmp_path), "--seed", "8", "certify",
                   "--counts", str(tmp_path / "counts.csv"), "--mc-replicas", "25") == 0
        v = read_json(tmp_path / "verdict.json")
        assert v["mc_replicas"] == 25 and v["mc_converged"] == 25
        assert isinstance(v["iterations"], int) and v["iterations"] > 10
        assert set(v["error_intervals"]) == set(v["quantities"])
        # The slowest replica: a member's solve does not depend on its stack,
        # so the replicas alone give the same iteration counts.
        data = cli.load_counts_csv(str(tmp_path / "counts.csv"))
        replicas = _replicas(data.n, 25, 8)
        iterations = certify.mle_batch(data.bases, replicas)[3]
        assert v["mc_max_iterations"] == iterations.max() and isinstance(v["mc_max_iterations"], int)


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("config, argv", [
        (None, ("circuit", "--phi", "nan")),
        (None, ("--seed", "-1", "circuit")),
        ({"counts_per_setting": "10"}, ("circuit",)),
        ({"phi": "x"}, ("circuit",)),
        ({"eta_grid": 0.5}, ("scan", "--param", "eta")),
        ({"mc_replicas": 1}, ("circuit",)),
        ({"baseline_weight": True}, ("circuit",)),
        ([], ("circuit",)),
        (None, ("certify", "--mc-replicas", "1", "--counts", "{all}")),
        (None, ("certify", "--mc-replicas", "10001", "--counts", "{all}")),
        (None, ("certify", "--counts", "{no_zz}")),
        (None, ("simulate-counts", "--model", "singlet", "--eta", "1.5")),
        (None, ("simulate-counts", "--model", "dephased", "--v", "7")),
        (None, ("certify", "--state", "{three_qubits}")),
        (None, ("certify", "--state", "{not_density}")),
        ({"counts_per_setting": 10**19}, ("simulate-counts",)),
        ({"counts_per_setting": 10**20}, ("simulate-counts",)),
        (None, ("simulate-counts", "--counts-per-setting", str(10**15 + 1))),
        (None, ("certify", "--counts", "{huge}")),
        (None, ("certify", "--counts", "{nan_axis}")),
        (None, ("certify", "--counts", "{far_negative}")),
        (None, ("certify", "--counts", "{all}", "--state", "{mixed}")),
        (None, ("--config", "{not_utf8}", "circuit")),
        (None, ("certify", "--counts", "{not_utf8}")),
        (None, ("certify", "--state", "{not_utf8}")),
        (None, ("--config", "{a_dir}", "circuit")),
        (None, ("certify", "--counts", "{a_dir}")),
        (None, ("certify", "--state", "{entry_1e400}")),
        (None, ("certify", "--state", "{dims_1e400}")),
        (None, ("simulate-counts", "--counts-per-setting", "0")),
        (None, ("certify", "--state", "{mixed}", "--counts-per-setting", "0")),
        (None, ("--out", "{nul}", "circuit")),
        (None, ("certify", "--state", "{entry_bool}")),
        (None, ("certify", "--state", "{dims_fractional}")),
        (None, ("certify", "--state", "{dims_strings}")),
    ], ids=["phi-nan", "seed-negative", "counts-string", "phi-string", "grid-scalar",
            "replicas-config", "weight-bool", "config-not-object", "replicas-flag",
            "replicas-above-cap",
            "missing-setting", "singlet-eta", "dephased-v", "state-three-qubits",
            "state-not-density", "counts-1e19", "counts-1e20", "counts-flag-above-cap",
            "csv-count-above-cap", "csv-nan-axis", "csv-count-below-int64",
            "counts-and-state", "config-not-utf8", "csv-not-utf8", "state-not-utf8",
            "config-is-a-directory", "csv-is-a-directory", "state-entry-1e400",
            "state-dims-1e400", "simulate-counts-zero", "certify-state-counts-zero",
            "out-nul-byte", "state-entry-bool", "state-dims-fractional", "state-dims-strings"])
    def test_bad_input_exits_2_with_one_line_error(self, tmp_path, capsys, config, argv):
        paths = {"all": tmp_path / "all.csv", "no_zz": tmp_path / "no_zz.csv",
                 "huge": tmp_path / "huge.csv", "nan_axis": tmp_path / "nan_axis.csv",
                 "far_negative": tmp_path / "far_negative.csv"}
        for name, path in paths.items():
            last = {"huge": 10**20, "far_negative": -10**30}.get(name, 40)
            path.write_text("setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n" + "".join(
                f"{a},{b},10,20,30,{last}\n" for a in "XYZ" for b in "XYZ"
                if name != "no_zz" or a + b != "ZZ")
                + ("nan:0:1,Z,10,10,10,10\n" if name == "nan_axis" else ""))
        for name, dim, diag in (("three_qubits", 8, 1 / 8), ("not_density", 4, 1 / 2),
                                ("mixed", 4, 1 / 4)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({
                "dims": [2] * int(math.log2(dim)),
                "matrix": [[[diag * (i == j), 0.0] for j in range(dim)] for i in range(dim)]}))
        paths["not_utf8"] = tmp_path / "not_utf8"
        paths["not_utf8"].write_bytes(b"\xff\xfe")
        paths["a_dir"] = tmp_path / "a_dir"
        paths["a_dir"].mkdir()
        # Numbers too large for a float: 10**400 as a matrix entry, 1e400 as a dimension.
        mixed = json.loads(paths["mixed"].read_text())
        paths["entry_1e400"] = tmp_path / "entry_1e400.json"
        paths["entry_1e400"].write_text(json.dumps(mixed).replace("0.25", str(10**400), 1))
        paths["dims_1e400"] = tmp_path / "dims_1e400.json"
        paths["dims_1e400"].write_text(json.dumps(mixed).replace("[2, 2]", "[1e400, 2]"))
        # Not numbers: JSON true/false as the entry 1 of |00><00|, and dims that int()
        # would truncate to 2.
        for k in range(4):
            mixed["matrix"][k][k] = [True, False] if k == 0 else [0.0, 0.0]
        paths["entry_bool"] = tmp_path / "entry_bool.json"
        paths["entry_bool"].write_text(json.dumps(mixed))
        for name, dims in (("dims_fractional", [2.7, 2.2]), ("dims_strings", ["2", "2"])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(paths["mixed"].read_text().replace("[2, 2]", json.dumps(dims)))
        paths["nul"] = tmp_path / "out" / "a\0b"
        prefix = ()
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            prefix = ("--config", str(tmp_path / "cfg.json"))
        argv = [a.format(**paths) for a in argv]
        assert run(*prefix, "--out", str(tmp_path / "out"), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "\0" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out, argv, reason", [
        ("afile", ("circuit",), "state_full.json: [Errno 17] File exists: '{tmp}/afile'"),
        ("afile/sub", ("hom-scan",), "hom_scan.csv: [Errno 20] Not a directory: '{out}'"),
        ("adir", ("circuit",),
         "state_full.json: [Errno 21] Is a directory: '{out}/state_full.json'"),
    ], ids=["out-is-a-file", "out-under-a-file", "output-is-a-directory"])
    def test_unwritable_output_exits_2_with_one_line_error(self, tmp_path, capsys, out, argv,
                                                           reason):
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir" / "state_full.json").mkdir(parents=True)
        assert run("--out", str(tmp_path / out), *argv) == 2
        reason = reason.format(tmp=tmp_path, out=tmp_path / out)
        assert capsys.readouterr().err == f"error: cannot write {tmp_path / out}/{reason}\n"
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert (tmp_path / "adir" / "state_full.json").is_dir()

    def test_state_dims_are_named(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"dims": [2, 2, 2], "matrix": [
            [[0.125 * (i == j), 0.0] for j in range(8)] for i in range(8)]}))
        assert run("--out", str(tmp_path / "o"), "certify", "--state", str(state)) == 2
        assert "dims [2, 2, 2]" in capsys.readouterr().err

    def test_state_trace_is_shown_as_a_float(self, tmp_path, capsys):
        state = tmp_path / "z.json"
        state.write_text(json.dumps({"dims": [2, 2], "matrix": [[[0.0, 0.0]] * 4] * 4}))
        assert run("--out", str(tmp_path / "o"), "certify", "--state", str(state)) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read state {state}: trace is 0.0, expected 1\n")

    def test_counts_at_the_cap_still_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"counts_per_setting": cli.MAX_COUNTS_PER_SETTING}))
        assert run("--config", str(cfg), "--out", str(tmp_path), "simulate-counts") == 0
        data = cli.load_counts_csv(str(tmp_path / "counts.csv"))
        assert data.n.sum(axis=1) == pytest.approx(10**15, rel=1e-6)

    def test_model_flags_are_read_by_their_models(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "simulate-counts", "--model", "singlet",
                   "--eta", "0.5") == 2
        assert "--model singlet does not read --eta" in capsys.readouterr().err
        for argv in (("dephased", "--eta", "0.5"), ("baseline", "--eta", "0.5"),
                     ("distinguishable", "--v", "0.5")):
            assert run("--out", str(tmp_path), "simulate-counts", "--model", *argv) == 0

    @pytest.mark.parametrize("argv", [
        ("photonic-verify", "--reflectivity", "1.5"),
        ("simulate-counts", "--model", "dephased", "--eta", "1.5"),
        ("simulate-counts", "--model", "distinguishable", "--v", "-0.1"),
    ])
    def test_exit_2_with_one_line_error(self, tmp_path, capsys, argv):
        assert run("--out", str(tmp_path), *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "outside [0, 1]" in err
        assert err.count("\n") == 1

    # The --flag=value form keeps argparse from reading -1e-05 or -inf as an option.
    @pytest.mark.parametrize("argv", [
        ("photonic-verify", "--reflectivity={}"),
        ("simulate-counts", "--model", "dephased", "--eta={}"),
        ("simulate-counts", "--model", "distinguishable", "--v={}"),
    ])
    def test_any_float_exits_0_2_or_4(self, tmp_path, argv):
        @given(st.floats(allow_nan=True, allow_infinity=True))
        @settings(max_examples=40, deadline=None)
        def check(x):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("--out", str(tmp_path), "--config", str(cfg),
                           *(a.format(repr(x)) for a in argv))
            assert code in (0, 2, 4)
            assert "Traceback" not in err.getvalue()
            if not 0.0 <= x <= 1.0:
                assert code == 2 and err.getvalue().startswith("error: ")

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"counts_per_setting": 10}))
        check()


# Each rejected command line is one error line naming what argparse, the config
# check for --bs or a command's check of its flags found wrong; a newline or NUL is
# shown as \n or \0.
REJECTED = [
    (("circuit", "--phi", "abc"), "argument --phi: invalid float value: 'abc'"),
    (("scan",), "the following arguments are required: --param"),
    (("scan", "--param", "w"), "argument --param: invalid choice: 'w'"),
    ((), "the following arguments are required: command"),
    (("teleport",), "argument command: invalid choice: 'teleport'"),
    (("circuit", "--frobnicate"), "unrecognized arguments: --frobnicate"),
    (("certify",), "one of the arguments --counts --state is required"),
    (("certify", "--counts", "c.csv", "--state", "s.json"),
     "argument --state: not allowed with argument --counts"),
    (("photonic-verify", "--bs", "ideal", "--reflectivity", "0.4"),
     "argument --reflectivity: not allowed with argument --bs"),
    (("hom-scan", "--bs", "foo"), "bs must be one of ['experimental', 'ideal'], got 'foo'"),
    (("circuit", "--x\ny"), "unrecognized arguments: --x\\ny"),
    (("--config", "{tmp}/no\nsuch.json", "circuit"), "cannot read config {tmp}/no\\nsuch.json"),
    (("--config", "{tmp}/no\0such.json", "circuit"), "cannot read config {tmp}/no\\0such.json"),
    (("certify", "--counts", "c.csv", "--counts-per-setting", "10"),
     "--counts does not read --counts-per-setting"),
]
REJECTED_IDS = ["phi-not-a-float", "scan-without-param", "scan-bad-param", "no-subcommand",
                "unknown-subcommand", "unknown-flag", "certify-without-input",
                "certify-counts-and-state", "bs-and-reflectivity", "hom-scan-bad-bs",
                "argument-with-newline", "config-path-with-newline", "config-path-with-nul",
                "counts-with-counts-per-setting"]


class TestParserRejections:
    @pytest.mark.parametrize("argv, named", REJECTED, ids=REJECTED_IDS)
    def test_rejected_command_line_exits_2_with_one_line(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert run("--out", str(out), *(a.format(tmp=tmp_path) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + named.format(tmp=tmp_path)) and err.count("\n") == 1
        assert "\0" not in err
        assert not out.exists()

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        assert run("--out", str(tmp_path / "a"), "circuit") == 0
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        assert run("--out", str(tmp_path / "b"), "photonic-verify", "--bs", "ideal") == 0
        assert run("--out", str(tmp_path / "c"), "circuit", "--phi", "0.5") == 0
        assert built == []
        cli.build_parser.__wrapped__()  # a fresh build: the root and its six subcommands
        assert len(built) == 7

    def test_rejections_leave_no_state_in_the_parser(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(cli.state_json(noise.dephased_singlets([0.8])[0]),
                                    default=np.ndarray.tolist))
        valid = [("photonic-verify", "--bs", "ideal"),
                 ("certify", "--state", str(state), "--mc-replicas", "10")]

        def run_valid(out):
            capsys.readouterr()
            codes = [run("--out", str(out / str(k)), *argv) for k, argv in enumerate(valid)]
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            return codes, capsys.readouterr().err, files

        before = run_valid(tmp_path / "before")
        for argv, _ in REJECTED:
            assert run("--out", str(tmp_path / "rejected"),
                       *(a.format(tmp=tmp_path) for a in argv)) == 2
        after = run_valid(tmp_path / "after")
        assert before[0] == [0, 0] and len(before[2]) == 2
        assert after == before

    def test_help_exits_0_and_shows_the_either_or_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("certify", "--help")
        assert exc.value.code == 0
        assert "(--counts COUNTS | --state STATE)" in capsys.readouterr().out


# Exit-code fuzz: config values for every field and values of the flags the
# cheap commands read.  Each field draws a valid value three times in four,
# else any JSON value, and each flag a value of its type three times in four
# (counts around and far above the cap among them), else any text, so most
# inputs pass validation and run a command.  certify and scan are fuzzed
# separately below, on small inputs that keep their run time short.
ANY_VALUE = st.one_of(
    st.booleans(),
    st.integers(-10**25, 10**25),
    st.sampled_from([-1, 0, 1, 2, 10**15, 10**15 + 1, 2**63, 10**20]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True),
                       st.integers(-2, 2), st.text(max_size=2), st.booleans()), max_size=5),
)
GRID = st.lists(st.floats(0.0, 1.0), max_size=5)
VALID_VALUES = {
    "phi": st.floats(-1e3, 1e3), "eta_grid": GRID, "v_grid": GRID, "gamma_grid": GRID,
    "bs": st.sampled_from(["ideal", "experimental"]),
    "counts_per_setting": st.integers(0, cli.MAX_COUNTS_PER_SETTING),
    "mc_replicas": st.integers(2, 10**6), "seed": st.integers(0, 10**25),
    "baseline_weight": st.floats(0.0, 1.0), "coherence_sigma_ps": st.floats(1e-3, 1e6),
    "output_dir": st.text(max_size=6),
}
FUZZ_COMMANDS = ("circuit", "hom-scan", "photonic-verify", "simulate-counts")
MODEL_FLAGS = {"singlet": [], "dephased": ["--eta"], "baseline": ["--eta"],
               "distinguishable": ["--v"], "maximally-mixed": [], "circuit": []}
FLAG_VALUES = {
    "--seed": st.integers(0, 10**25), "--phi": st.floats(-1e3, 1e3),
    "--reflectivity": st.floats(0.0, 1.0), "--bs": st.sampled_from(["ideal", "experimental"]),
    "--eta": st.floats(0.0, 1.0), "--v": st.floats(0.0, 1.0),
    "--counts-per-setting": st.one_of(st.integers(1, 10**4), st.integers(10**15 - 2, 10**15 + 2),
                                      st.integers(10**18, 10**25)),
}
ANY_FLAG_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**25, 10**25),
    st.text(max_size=6),
)


@st.composite
def fuzz_config(draw):
    fields = draw(st.lists(st.sampled_from(sorted(VALID_VALUES) + ["nonsense"]),
                           max_size=3, unique=True))
    return {f: draw(ANY_VALUE if f not in VALID_VALUES or draw(st.integers(0, 3)) == 0
                    else VALID_VALUES[f]) for f in fields}


@st.composite
def fuzz_argv(draw):
    def flag(name):
        value = draw(ANY_FLAG_TEXT if draw(st.integers(0, 3)) == 0 else FLAG_VALUES[name])
        # The --flag=value form keeps argparse from reading -1 or -inf as an option.
        return f"{name}={value}"

    command = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = [flag("--seed")] if draw(st.booleans()) else []
    argv.append(command)
    flags = {"circuit": ["--phi"], "photonic-verify": ["--reflectivity", "--bs"],
             "hom-scan": ["--bs"]}.get(command, [])
    if command == "simulate-counts":
        model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
        argv += ["--model", model]
        flags = MODEL_FLAGS[model] + ["--counts-per-setting"]
        if draw(st.integers(0, 7)) == 0:
            flags.append(draw(st.sampled_from(["--eta", "--v"])))  # maybe one it does not read
    argv += [flag(name) for name in dict.fromkeys(flags) if draw(st.booleans())]
    return argv


# certify --counts reads a generated CSV: each Pauli-pair row is kept, left
# out, kept beside an all-zero copy (a dropped row, which measures nothing), or
# given a Bloch-vector axis (unit, not unit, NaN or inf), with counts of at most
# 50, not all zero; or it reads all nine Pauli-pair rows with counts of 1 to 50,
# a file it runs to the end whatever else the draws meet.  scan runs grids of up
# to three points.
BLOCH_TEXT = st.one_of(
    st.sampled_from(["0.6:0.8:0", "0:0:-1", "0.7071067811865476:0:0.7071067811865476",
                     "nan:0:1", "inf:0:0", "1:1:0", "0:0"]),
    st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3).map(
        lambda v: ":".join(map(repr, v))),
)


COUNTS_ROW = st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any)


@st.composite
def counts_csv_text(draw):
    lines = ["setting_a,setting_b,n_pp,n_pm,n_mp,n_mm"]
    for a in "XYZ":
        for b in "XYZ":
            kind = draw(st.sampled_from(["keep"] * 6 + ["missing", "zero", "bloch"]))
            if kind == "missing":
                continue
            if kind == "bloch":
                a, b = draw(st.sampled_from([(draw(BLOCH_TEXT), b), (a, draw(BLOCH_TEXT))]))
            if kind == "zero":
                lines.append(",".join([a, b, "0", "0", "0", "0"]))
            lines.append(",".join([a, b, *map(str, draw(COUNTS_ROW))]))
    for _ in range(draw(st.integers(0, 2))):  # extra rows along general axes
        a, b = draw(st.sampled_from("XYZ")), draw(BLOCH_TEXT)
        pair = draw(st.sampled_from([(a, b), (b, a)]))
        lines.append(",".join([*pair, *map(str, draw(COUNTS_ROW))]))
    return "\n".join(lines) + "\n"


@st.composite
def complete_counts_csv_text(draw):
    rows = [",".join([a, b, *map(str, draw(st.lists(st.integers(1, 50), min_size=4,
                                                     max_size=4)))])
            for a in "XYZ" for b in "XYZ"]
    return "\n".join(["setting_a,setting_b,n_pp,n_pm,n_mp,n_mm", *rows]) + "\n"


SMALL_GRID = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)


@st.composite
def certify_or_scan(draw):
    config = {"seed": draw(st.integers(0, 10**6)), "mc_replicas": 2}
    if draw(st.booleans()):
        csv_text = draw(st.one_of(counts_csv_text(), complete_counts_csv_text()))
        return config, ("certify", "--counts", "{csv}"), csv_text
    param = draw(st.sampled_from(["eta", "v"]))
    config.update({f"{param}_grid": draw(SMALL_GRID),
                   "counts_per_setting": draw(st.integers(0, 50)),
                   "baseline_weight": draw(st.floats(0.0, 1.0))})
    return config, ("scan", "--param", param), None


# certify --state reads a valid two-qubit state with one thing changed: one
# number of the matrix becomes a bool of the same truth, a string, null, NaN,
# 1e400 or 10**400, or the dims become one of DIMS_CASES (None leaves them out).  Only
# dims equal to (2, 2), or none, keep the file a state.
ENTRY_TOKENS = ["bool", '"0"', "null", "NaN", "1e400", str(10**400)]
DIMS_CASES = [[2.0, 2.0], [2.7, 2.2], ["2", "2"], [4], [2, 2, 2], None]


@st.composite
def state_json_text(draw):
    """(text of a state file, whether it holds a two-qubit state of finite numbers)."""
    rho = certify.random_density_matrices(np.random.default_rng(draw(st.integers(0, 99))), 1)[0]
    rho = draw(st.sampled_from([rho, noise.SINGLET, np.eye(4) / 4]))
    doc = cli.state_json(rho)
    doc["matrix"] = doc["matrix"].tolist()
    kind = draw(st.sampled_from(["none", "entry", "dims"]))
    if kind == "dims":
        dims = draw(st.sampled_from(DIMS_CASES))
        if dims is None:
            del doc["dims"]
        else:
            doc["dims"] = dims
        return json.dumps(doc), dims is None or tuple(dims) == (2, 2)
    if kind == "none":
        return json.dumps(doc), True
    i, j, part = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
    token = draw(st.sampled_from(ENTRY_TOKENS))
    if token == "bool":
        token = json.dumps(bool(doc["matrix"][i][j][part]))
    doc["matrix"][i][j][part] = "@"
    return json.dumps(doc).replace('"@"', token), False


class TestExitCodeFuzz:
    def test_exit_codes_are_documented_and_tracebacks_absent(self, tmp_path):
        ran = set()

        @given(fuzz_config(), fuzz_argv())
        @settings(max_examples=300)
        def check(config, argv):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run("--config", str(cfg), "--out", str(tmp_path / "out"), *argv)
            assert code in (0, 2, 3, 4), (code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 0:
                ran.add(next(a for a in argv if a in FUZZ_COMMANDS))

        assert set(VALID_VALUES) == {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
        check()
        assert ran == set(FUZZ_COMMANDS)  # the draws reach past validation into every command

    def test_certify_and_scan_exit_codes_on_small_inputs(self, tmp_path):
        outcomes = set()

        @given(certify_or_scan())
        @settings(max_examples=200)
        def check(case):
            config, argv, csv_text = case
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            if csv_text is not None:
                (tmp_path / "counts.csv").write_text(csv_text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"),
                           *(a.format(csv=tmp_path / "counts.csv") for a in argv))
            assert code in (0, 2, 3, 4), (code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            outcomes.add((argv[0], code))

        check()
        # Both commands run to the end, and certify also meets inputs it rejects.
        assert {("certify", 0), ("certify", 2), ("scan", 0)} <= outcomes

    def test_state_file_exit_codes(self, tmp_path):
        outcomes = set()
        state = tmp_path / "state.json"

        @given(state_json_text())
        @settings(max_examples=60)
        def check(case):
            text, valid = case
            state.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("--out", str(tmp_path / "out"), "certify", "--state", str(state),
                           "--mc-replicas", "2", "--counts-per-setting", "50")
            assert code in (0, 2, 3), (code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert (code == 2) != valid, (text, code, err.getvalue())
            outcomes.add(code)

        check()
        assert {0, 2} <= outcomes


class TestDeterminism:
    def test_rerun_over_existing_outputs_rewrites_them_in_place(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.5], "counts_per_setting": 500}))
        commands = [("circuit",), ("scan", "--param", "eta")]
        for argv in commands:
            assert run("--config", str(cfg), "--out", str(tmp_path / "fresh"), *argv) == 0
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert len(names) == 4 + 2 + 2  # circuit's four, the scan's two and one per point
        # Every other output name holds a longer file, the rest a shorter one; one is
        # hard-linked from outside, one has its own mode, one is a link to /dev/null.
        old = tmp_path / "old"
        old.mkdir()
        for i, name in enumerate(names):
            size = (tmp_path / "fresh" / name).stat().st_size
            (old / name).write_bytes(b"x" * (9000 if i % 2 else size // 2))
            assert 9000 > size
        linked, private = old / "summary.json", old / "scan_eta.csv"
        null = old / "state_spins.json"
        outside = tmp_path / "outside.json"
        outside.hardlink_to(linked)
        inode = linked.stat().st_ino
        private.chmod(0o640)
        null.unlink()
        null.symlink_to("/dev/null")
        for argv in commands:
            assert run("--config", str(cfg), "--out", str(old), *argv) == 0
        assert sorted(p.name for p in old.iterdir()) == names
        for name in names:
            if name != null.name:
                assert (old / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert outside.read_bytes() == linked.read_bytes()
        assert linked.stat().st_ino == outside.stat().st_ino == inode
        assert private.stat().st_mode & 0o777 == 0o640
        assert null.is_symlink() and str(null.readlink()) == "/dev/null"

    def test_certify_rerun_byte_identical(self, tmp_path):
        run("--out", str(tmp_path / "c"), "--seed", "9", "simulate-counts",
            "--model", "dephased", "--eta", "0.5")
        counts = tmp_path / "c" / "counts.csv"
        for d in ("a", "b"):
            assert run("--out", str(tmp_path / d), "--seed", "9", "certify",
                       "--counts", str(counts), "--mc-replicas", "10") == 0
        a = (tmp_path / "a" / "verdict.json").read_bytes()
        b = (tmp_path / "b" / "verdict.json").read_bytes()
        assert a == b

    def test_certify_default_replicas_rerun_byte_identical(self, tmp_path):
        run("--out", str(tmp_path / "c"), "--seed", "4", "simulate-counts",
            "--model", "baseline", "--eta", "0.6")
        counts = tmp_path / "c" / "counts.csv"
        for d in ("a", "b"):
            assert run("--out", str(tmp_path / d), "--seed", "4", "certify",
                       "--counts", str(counts)) == 0
        a = (tmp_path / "a" / "verdict.json").read_bytes()
        assert a == (tmp_path / "b" / "verdict.json").read_bytes()
        v = json.loads(a)
        assert v["mc_replicas"] == 100 and v["mc_converged"] == 100

    def test_scan_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.5], "counts_per_setting": 500}))
        for d in ("a", "b"):
            assert run("--config", str(cfg), "--out", str(tmp_path / d), "scan",
                       "--param", "eta") == 0
            files = sorted(p.name for p in (tmp_path / d).iterdir())
            assert "scan_eta.csv" in files
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


# Documents for the JSON writer: every leaf json renders (NaN, +-inf, -0.0,
# np.float64, non-ASCII and control-character text), float-only lists (the
# writer's one-join path, with and without non-finite items), tuples, empty and
# nested containers, and chains up to 60 levels deep.
JSON_FLOAT = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]))
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), JSON_FLOAT,
    JSON_FLOAT.map(np.float64), st.text(max_size=6),
    st.sampled_from(["", "\x00\x1f\x7f\n\t", "é∂😀\u2028", '"\\/', "\ud800"]),
)
JSON_KEY = st.one_of(st.text(max_size=4), st.sampled_from(["", "é", "\x01", "a\"b"]))
JSON_DOC = st.recursive(
    st.one_of(JSON_LEAF, st.lists(JSON_FLOAT | JSON_FLOAT.map(np.float64), max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEY, inner, max_size=4)),
    max_leaves=25,
)


@st.composite
def deep_json_doc(draw):
    doc = draw(JSON_DOC)
    for _ in range(draw(st.integers(0, 60))):
        doc = draw(st.sampled_from([[doc], (doc, 1.5), {"k": doc, "a": []}]))
    return doc


# The cells a CSV writer is handed: floats, ints and setting axes, a name or, as a
# hand-written counts file spells one, three "%.17g" floats joined by ":".
AXIS_CELL = st.one_of(st.sampled_from(["X", "Y", "Z"]),
                      st.lists(st.floats(), min_size=3, max_size=3).map(axis_token))


# Float arrays for ``cli._json_text``: the shapes the writers hand it ((k,) grids, spectra
# and truth tables, (k, 2) amplitudes, (16, 2) amplitudes, (4, 4, 2) states), empty
# shapes, finite floats with -0.0 and the extremes, sometimes one NaN or Inf, and
# sometimes a strided (non-contiguous) view.
@st.composite
def float_array(draw):
    shape = draw(st.sampled_from([(1,), (5,), (3, 2), (16, 2), (4, 4, 2), (0,), (0, 2),
                                  (3, 0, 2)]))
    size = math.prod(shape)
    finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]))
    values = draw(st.lists(finite, min_size=size, max_size=size))
    if size and draw(st.booleans()):
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    a = np.array(values, dtype=float).reshape(shape)
    if draw(st.booleans()):
        wide = np.zeros(shape + (2,))
        wide[..., 1] = a
        a = wide[..., 1]
        assert not a.flags.c_contiguous or size < 2
    return a


def csv_reference(cfg, header, rows):
    """A CSV output as ``write_csv`` rendered it with one ``csv.writer.writerow`` per row,
    each line ended by "\n", and each float through ``format(float(x), ".17g")``."""
    buf = io.StringIO()
    for key, val in sorted(cli._meta(cfg).items()):
        buf.write(f"# {key}: {json.dumps(val, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(x), ".17g") if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


class TestWriters:
    @settings(max_examples=200)
    @given(deep_json_doc())
    def test_json_text_is_json_dumps_indent_2(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    # Float64 arrays are rendered as their tolist(); arrays of any other dtype are not.
    @pytest.mark.parametrize("leaf", [{1, 2}, np.int64(3), np.bool_(True), np.float32(0.5),
                                      np.array([1]), np.array([True]), np.array([1j]),
                                      complex(1, 2), b"x", object()])
    def test_a_leaf_json_rejects_raises_type_error(self, leaf):
        for doc in (leaf, [0.5, leaf], {"a": {"b": [leaf]}}):
            with pytest.raises(TypeError):
                json.dumps(doc, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                cli._json_text(doc)

    @pytest.mark.parametrize("doc", [{1: 0.5}, {"a": 1, None: 2}, [{True: []}], {1.5: "x"}])
    def test_a_key_that_is_not_a_string_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc)

    @settings(max_examples=300)
    @given(float_array(), st.lists(st.sampled_from(["dict", "list"]), max_size=3))
    def test_a_float_array_renders_as_json_dumps_at_its_indent(self, a, nesting):
        doc = a
        for kind in nesting:  # {"matrix": ...} and [..., 1.5] one level further in each
            doc = {"matrix": doc, "dims": [2, 2]} if kind == "dict" else [doc, 1.5]
        assert cli._json_text(doc) == json.dumps(
            doc, default=np.ndarray.tolist, sort_keys=True, indent=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_float_array_with_a_non_finite_entry_takes_the_list_way(self, bad):
        a = np.full((4, 4, 2), 0.25)
        a[2, 1, 0] = bad
        doc = {"rho_hat": {"matrix": a}}
        text = cli._json_text(doc)
        assert text == json.dumps(doc, default=np.ndarray.tolist, sort_keys=True, indent=2)
        assert json.dumps(bad) in text and "nan" not in text and "inf" not in text

    def test_write_text_finishes_on_one_byte_writes(self, tmp_path, monkeypatch):
        write, calls = os.write, []

        def one_byte(fd, data):
            calls.append(fd)
            return write(fd, bytes(data[:1]))

        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 100)  # an older, longer file: cut to the new length
        text = "# é\n" + "a,0.5\r\n" * 5
        monkeypatch.setattr(os, "write", one_byte)
        cli._write_text(path, text)
        monkeypatch.undo()
        assert path.read_bytes() == text.encode() and len(calls) == len(text.encode())

    def test_every_json_output_is_json_dumps_of_its_document(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta_grid": [0.0, 0.5], "v_grid": [0.25, 1.0],
                                   "gamma_grid": [0.0, 0.5, 1.0], "counts_per_setting": 500,
                                   "mc_replicas": 5}))
        out = tmp_path / "out"
        commands = [
            ("circuit", "--phi", "1.25"), ("photonic-verify",),
            ("photonic-verify", "--reflectivity", "0.5"), ("scan", "--param", "eta"),
            ("scan", "--param", "v"), ("hom-scan",),
            ("simulate-counts", "--model", "baseline", "--eta", "0.4"),
            ("certify", "--counts", str(out / "6" / "counts.csv")),
            ("certify", "--state", str(out / "0" / "state_canonical.json")),
        ]
        for i, argv in enumerate(commands):
            assert run("--config", str(cfg), "--out", str(out / str(i)), *argv) in (0, 4)
        files = sorted(out.rglob("*.json"))
        assert len(files) == 4 + 1 + 1 + 3 + 3 + 1 + 1 + 1
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path

    def test_write_json_appends_one_newline(self, tmp_path):
        cfg = cli.ExperimentConfig()
        payload = {"x": [0.1, math.nan], "s": "é"}
        cli.write_json(tmp_path / "t.json", cfg, payload)
        doc = {"meta": cli._meta(cfg), **payload}
        assert (tmp_path / "t.json").read_bytes() == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    def test_csv_rows_render_as_before(self, tmp_path):
        cfg = cli.ExperimentConfig()
        header = ["a", "b", "c", "d", "e", "f", "g"]
        rows = [
            [0.1, np.float64(2 / 3), 7, "X", math.inf, math.nan, -0.0],
            [np.float64(-math.inf), 10**20, "Y", 5e-324, "0.6:-0:0.8", -1, np.float64(-0.0)],
            [1e22, 0.5, 0, "Z", np.float64(math.nan), 123456789.125, 2.0**-1074],
        ]
        cli.write_csv(tmp_path / "t.csv", cfg, header, rows)
        assert (tmp_path / "t.csv").read_bytes() == csv_reference(cfg, header, rows)

    def test_csv_cell_types_may_change_between_rows(self, tmp_path):
        cfg = cli.ExperimentConfig()
        rows = [
            [np.float64(0.5), 3, True, math.inf, "X", -0.0],
            [7, np.float64(-0.0), 2.5, False, math.nan, "Y"],
            [False, math.nan, np.float64(math.inf), -0.0, 10**30, np.float64(1 / 3)],
            [-math.inf, True, 0, "Z", np.float64(math.nan), 12],
        ]
        cli.write_csv(tmp_path / "t.csv", cfg, list("abcdef"), rows)
        assert (tmp_path / "t.csv").read_bytes() == csv_reference(cfg, list("abcdef"), rows)

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.lists(st.one_of(
        st.floats(), st.floats().map(np.float64), st.integers(), AXIS_CELL),
        max_size=5), max_size=6))
    def test_csv_rows_render_as_csv_writer_does(self, tmp_path_factory, rows):
        cfg = cli.ExperimentConfig()
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        cli.write_csv(path, cfg, ["h"], rows)
        assert path.read_bytes() == csv_reference(cfg, ["h"], rows)

    def test_counts_csv_round_trips_tetrahedral_pairs(self, tmp_path):
        axes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        data = certify.Counts(np.array([[a, b] for a in axes for b in axes]),
                              np.random.default_rng(30).integers(0, 10**4, size=(16, 4)))
        hand_written_counts(tmp_path / "counts.csv", data.bases, data.n)
        back = cli.load_counts_csv(str(tmp_path / "counts.csv"))
        assert np.array_equal(back.bases, data.bases) and np.array_equal(back.n, data.n)

    def test_state_json_equals_the_per_entry_build(self):
        rng = np.random.default_rng(3)
        m = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).T
        m[0, 1], m[2, 3] = complex(-0.0, 0.5), complex(0.25, -0.0)
        assert not m.flags.c_contiguous
        old = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        doc = cli.state_json(m)
        assert doc["matrix"].dtype == np.float64
        assert cli._json_text(doc["matrix"]) == json.dumps(old, indent=2)

    def test_pure_state_json_equals_the_per_entry_build(self):
        rng = np.random.default_rng(4)
        a = (rng.normal(size=32) + 1j * rng.normal(size=32))[::2]
        a[3], a[7] = complex(-0.0, -0.0), complex(1.0, -0.0)
        assert not a.flags.c_contiguous
        old = [[float(z.real), float(z.imag)] for z in a]
        doc = cli.pure_state_json(a)
        assert doc["amplitudes"].dtype == np.float64
        assert cli._json_text(doc["amplitudes"]) == json.dumps(old, indent=2)
