"""Tests of the benchmark itself: definition file, inputs, checks, determinism.

    python3 -m pytest -q benchmarks

The end-to-end tests run the harness as a subprocess on short runs and take
about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def gmesim():
    return run.load_program()


def test_definition_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_reference_states_match_program(gmesim):
    noise, circuit = gmesim["noise"], gmesim["circuit"]
    np.testing.assert_allclose(workloads.singlet(), circuit.singlet().density().matrix, atol=1e-15)
    np.testing.assert_allclose(workloads.rho_dist(), noise.rho_dist().matrix, atol=1e-15)
    for eta in (0.3, 0.6):
        np.testing.assert_allclose(workloads.baseline(eta), noise.baseline_state(eta).matrix,
                                   atol=1e-15)


def test_counts_are_seeded_and_readable(gmesim, tmp_path):
    rho = workloads.baseline(0.3)
    a = workloads.counts_csv(rho, 100, np.random.default_rng([4, 1]))
    assert a == workloads.counts_csv(rho, 100, np.random.default_rng([4, 1]))
    assert a != workloads.counts_csv(rho, 100, np.random.default_rng([5, 1]))
    path = tmp_path / "counts.csv"
    path.write_text(a)
    records = gmesim["cli"].load_counts_csv(str(path), 100.0)
    assert len(records) == 9


def test_checks_reject_a_wrong_verdict(tmp_path):
    w = workloads.certify_bootstrap(3, tmp_path)
    cmd = next(c for c in w.cycle if c.label == "certify:baseline-0.6")
    doc = {
        "entanglement_verdict": "separable_certified",
        "converged": True,
        "rho_hat": {"matrix": [[[float(z.real), float(z.imag)] for z in row]
                               for row in workloads.baseline(0.6)]},
    }
    cmd.out.mkdir(parents=True)
    (cmd.out / "verdict.json").write_text(json.dumps(doc))
    assert cmd.check(cmd.out) == ["verdict separable_certified != certified_ppt"]
    doc["entanglement_verdict"] = "certified_ppt"
    (cmd.out / "verdict.json").write_text(json.dumps(doc))
    assert cmd.check(cmd.out) == []


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counters_repeat_for_a_seed(workload):
    # Runs of different length: counters are per invocation, so they must agree.
    first, second = (result_of(bench("--workload", workload, "--seed", "5", "--seconds", s,
                                     "--trace", "1")) for s in ("1", "2"))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(run.PER_LAYER)
        assert res["metrics"]["cli.span_coverage.p10"]["value"] >= 0.95
    for name in tracing.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "certify-bootstrap":
        assert first["metrics"]["certify.mle_state.calls"]["value"] == 101
        assert first["metrics"]["certify.bootstrap.converged_ratio"]["value"] == 1


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_second_seed_passes_every_check(workload):
    res = result_of(bench("--workload", workload, "--seed", "2", "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "optics-circuit", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
