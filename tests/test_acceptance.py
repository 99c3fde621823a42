"""Acceptance battery: ten end-to-end checks with stated tolerances.

Each test prints a single PASS/FAIL line so the suite doubles as a release
checklist when run with ``pytest -v -s tests/test_acceptance.py``.
"""

import json
import math
import time

import numpy as np
import pytest

from gmesim import certify, circuit, cli, noise, photonic


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_circuit_fidelity():
    circuit.run_circuit(circuit.build_gme_circuit(math.pi))  # warm caches
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        _, full = circuit.run_circuit(circuit.build_gme_circuit(math.pi))
        rho = circuit.reduced_spin_state(full)
        elapsed = min(elapsed, time.perf_counter() - t0)
    ideal = circuit.ideal_spin_state(math.pi)
    (fid,) = certify.derived_batch(rho[None], np.outer(ideal, ideal.conj()))["fidelity_to_target"]
    report(
        "circuit fidelity >= 1 - 1e-10 and runtime < 1 ms",
        fid >= 1 - 1e-10 and elapsed < 1e-3,
        f"fidelity {fid:.15f}, {elapsed * 1e3:.3f} ms",
    )


def test_02_photonic_cz_oracle():
    t0 = time.perf_counter()
    channel, probs = photonic.cz_channel(photonic.build_cz_network())
    fid = photonic.channel_fidelity_to_cz(channel)
    elapsed = time.perf_counter() - t0
    ok = (
        fid >= 1 - 1e-10
        and np.max(np.abs(probs - 1 / 9)) <= 1e-12
        and elapsed < 1.0
    )
    report(
        "post-selected channel is CZ with success 1/9",
        ok,
        f"process fidelity {fid:.15f}, max |p - 1/9| {np.max(np.abs(probs - 1/9)):.2e}, "
        f"{elapsed:.3f} s",
    )


def test_03_hom_visibility():
    v_third = photonic.hom_visibility(photonic.BsParams(1 / 3, 1 / 3))
    v_half = photonic.hom_visibility(photonic.BsParams(0.5, 0.5))
    ok = abs(v_third - 0.8) <= 1e-9 and abs(v_half - 1.0) <= 1e-9
    report(
        "HOM visibility 0.8 at R=1/3 and 1.0 at R=1/2",
        ok,
        f"V(1/3) = {v_third:.12f}, V(1/2) = {v_half:.12f}",
    )


def test_04_witness_endpoints():
    states = [circuit.singlet().density().matrix, noise.RHO_MIX, noise.rho_dist().matrix]
    w_s, w_mix, w_dist = certify.derived_batch(np.stack(states))["witness"].tolist()
    ok = abs(w_s + 1) <= 1e-12 and abs(w_mix - 1) <= 1e-12 and abs(w_dist - 1) <= 1e-12
    report(
        "witness endpoints -1 / +1 / +1",
        ok,
        f"W(singlet) = {w_s:.2e}+(-1), W(mix) = {w_mix}, W(dist) = {w_dist}",
    )


def bisect_baseline_crossing(weight: float) -> float:
    """Baseline-model witness zero crossing by bisection of the computed witness."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if certify.derived_batch(noise.baseline_state(mid, weight).matrix[None])["witness"][0] < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_05_dephasing_law_and_baseline_crossing():
    grid = np.linspace(0.0, 1.0, 101)
    w = certify.derived_batch(noise.dephased_singlets(grid))["witness"]
    err = float(np.max(np.abs(w - (2 * grid - 1))))
    crossing = bisect_baseline_crossing(0.86)
    ok = err <= 1e-12 and abs(crossing - 0.419) <= 1e-3
    report(
        "W(eta) = 2 eta - 1 and baseline crossing at 0.419",
        ok,
        f"max law error {err:.2e}, crossing {crossing:.6f}",
    )


@pytest.mark.parametrize("weight", [0.5, 0.6, 0.86, 1.0])
def test_closed_form_crossing_matches_bisection(weight):
    crossing = noise.baseline_witness_zero_crossing(weight)
    assert abs(crossing - bisect_baseline_crossing(weight)) < 1e-12


@pytest.mark.parametrize("weight", [0.0, 0.3])
def test_no_crossing_below_half_weight(weight):
    assert noise.baseline_witness_zero_crossing(weight) is None


def test_06_distinguishability_law_and_fock_family():
    grid = np.linspace(0.0, 1.0, 101)
    w = certify.derived_batch(noise.distinguishable_states(grid))["witness"]
    err = float(np.max(np.abs(w - (1 - 2 * grid))))
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0]
    canon = circuit.singlet_frame(photonic.simulate_pipeline_grid(gammas)[0])
    v = photonic.fit_visibility_weights(canon)[:, None, None]
    # Trace distance of each state to the best member v|S><S| + (1 - v) rho_dist.
    delta = canon - (v * noise.SINGLET + (1 - v) * noise.RHO_DIST)
    eigs = np.linalg.eigvalsh((delta + delta.conj().swapaxes(1, 2)) / 2)
    max_dist = float(np.max(0.5 * np.sum(np.abs(eigs), axis=1)))
    endpoints = dict(zip(gammas, v.ravel().tolist()))
    ok = (
        err <= 1e-12
        and abs(endpoints[0.0]) <= 1e-9
        and abs(endpoints[1.0] - 1.0) <= 1e-9
        and max_dist <= 1e-9
    )
    report(
        "W(v) = 1 - 2v and Fock family matches the two-state mixture",
        ok,
        f"max law error {err:.2e}, v(0) = {endpoints[0.0]:.2e}, "
        f"v(1) = {endpoints[1.0]:.12f}, max trace distance {max_dist:.2e}",
    )


def test_07_chsh():
    singlet = circuit.singlet().density().matrix[None]
    s_fixed = float(certify.derived_batch(singlet)["chsh_fixed"][0])
    tsirelson = 2 * math.sqrt(2)
    rng = np.random.default_rng(2024)
    states = certify.random_density_matrices(rng, 10_000)
    worst = float(np.max(certify.derived_batch(states)["chsh_max"]))
    baseline = noise.baseline_states(np.linspace(0.0, 0.3, 31, endpoint=False))
    baseline_ok = bool(np.all(certify.derived_batch(baseline)["chsh_max"] > 2.0))
    ok = (
        abs(s_fixed - tsirelson) <= 1e-9
        and worst <= tsirelson + 1e-9
        and baseline_ok
    )
    report(
        "CHSH: singlet at 2 sqrt(2), Tsirelson bound respected, baseline eta < 0.3 violates",
        ok,
        f"singlet {s_fixed:.12f}, max over 1e4 random states {worst:.12f}, "
        f"baseline violation {baseline_ok}",
    )


def test_08_ppt_family_and_mle_pipeline():
    grid = np.linspace(0.0, 1.0, 21)
    eigs = certify.derived_batch(noise.dephased_singlets(grid))["ppt_eigenvalues"]
    half = np.full_like(grid, 0.5)
    expect = np.stack([half, half, (1 - grid) / 2, -(1 - grid) / 2], axis=1)  # descending
    spec_err = float(np.max(np.abs(eigs - expect)))
    truth = noise.dephased_singlets(0.6)
    counts = certify.simulate_counts_batch(truth[None], certify.PAULI_SETTINGS, 10_000, [606])
    min_pt = float(certify.fit(certify.PAULI_SETTINGS, counts, truth)["min_pt_eigenvalue"][0])
    errors = certify.bootstrap(certify.Counts(certify.PAULI_SETTINGS, counts[0]), 100, 606)[0]
    sigma = errors["min_pt_eigenvalue"]
    ok = (
        spec_err <= 1e-10
        and abs(min_pt + 0.2) <= 0.02
        and 0.0008 <= sigma <= 0.08  # order of magnitude of the reference 0.008
    )
    report(
        "PT spectrum family exact; MLE pipeline finds -0.2 +/- 0.02 with sane error bars",
        ok,
        f"max spectrum error {spec_err:.2e}, min PT {min_pt:.4f}, sigma {sigma:.4f}",
    )


def test_09_tomography_round_trip():
    truths = {
        "singlet": noise.SINGLET,
        "dephased(0.5)": noise.dephased_singlets(0.5),
        "rho_dist": noise.RHO_DIST,
        "maximally mixed": np.eye(4, dtype=complex) / 4,
    }
    t0 = time.perf_counter()
    details = []
    ok = True
    for idx, (name, truth) in enumerate(truths.items()):
        seeds = [int(np.random.SeedSequence([idx, trial]).generate_state(1)[0])
                 for trial in range(100)]
        counts = certify.simulate_counts_batch(np.broadcast_to(truth, (100, 4, 4)),
                                               certify.PAULI_SETTINGS, 10_000, seeds)
        fidelity = certify.fit(certify.PAULI_SETTINGS, counts, truth)["fidelity_to_target"]
        good = int(np.sum(fidelity >= 0.99))
        details.append(f"{name}: {good}/100")
        ok = ok and good >= 95
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(
        "MLE round-trip fidelity >= 0.99 in >= 95/100 trials, under 60 s",
        ok,
        ", ".join(details) + f", {elapsed:.1f} s",
    )


def test_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta_grid": [0.0, 0.6], "counts_per_setting": 1000,
                               "mc_replicas": 10}))
    outputs = {}
    for d in ("a", "b"):
        out = tmp_path / d
        assert cli.main(["--config", str(cfg), "--out", str(out), "scan",
                         "--param", "eta"]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(out),
                         "simulate-counts", "--model", "dephased", "--eta", "0.6"]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(out), "certify",
                         "--counts", str(out / "counts.csv")]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(out), "hom-scan"]) == 0
        outputs[d] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        }
    identical = outputs["a"] == outputs["b"]
    report(
        "reruns with identical config and seed are byte-identical",
        identical,
        f"{len(outputs['a'])} files compared",
    )
