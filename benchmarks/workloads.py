"""Workloads of the gme-sim benchmark: seeded inputs, command cycles, output checks.

A workload turns the benchmark seed into input files and a cycle of gme-sim
argument vectors; the program sees nothing else.  The reference states and
the counts generator below are written with numpy alone, so a change to the
program cannot change its own inputs.  Every command carries a check that
reads the files the command wrote and returns the problems it found; any
problem counts the command as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

COUNTS_PER_SETTING = 10_000  # the program's default; certify is run on its default config
DEFAULT_GRID_POINTS = 21
HOM_GRID_POINTS = 100

# ---------------------------------------------------------------------------
# Reference two-qubit states, basis order VV, VH, HV, HH (0 = V, 1 = H).

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def singlet() -> np.ndarray:
    """(|HV> - |VH>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[2], v[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return _projector(v)


def rho_mix() -> np.ndarray:
    return np.diag([0, 0.5, 0.5, 0]).astype(complex)


def rho_dist() -> np.ndarray:
    """(|H+><H+| + |+H><+H|)/2, the fully distinguishable-photon state."""
    h_plus = np.array([0, 0, 1, 1], dtype=complex) / math.sqrt(2)
    plus_h = np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2)
    return (_projector(h_plus) + _projector(plus_h)) / 2


def baseline(eta: float, weight: float = 0.86) -> np.ndarray:
    """Dephased singlet/rho_mix mixture: the experimental-baseline source."""
    m = weight * singlet() + (1 - weight) * rho_mix()
    z2 = np.kron(_I2, _PAULI["Z"])
    return (1 - eta) * m + eta * 0.5 * (m + z2 @ m @ z2)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2."""
    vals, vecs = np.linalg.eigh(sigma)
    root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    m = root @ rho @ root
    inner = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(np.sum(np.sqrt(np.clip(inner, 0, None))) ** 2)


def counts_csv(rho: np.ndarray, n: int, rng: np.random.Generator) -> str:
    """Poisson counts for the nine Pauli-pair settings in gme-sim's CSV format."""
    lines = ["setting_a,setting_b,n_pp,n_pm,n_mp,n_mm"]
    for a in "XYZ":
        for b in "XYZ":
            probs = [
                np.trace(rho @ np.kron((_I2 + sa * _PAULI[a]) / 2, (_I2 + sb * _PAULI[b]) / 2)).real
                for sa in (1, -1)
                for sb in (1, -1)
            ]
            counts = rng.poisson(n * np.clip(probs, 0.0, 1.0))
            lines.append(",".join([a, b, *(str(int(c)) for c in counts)]))
    return "\n".join(lines) + "\n"


# Certify sources.  A label is checked only where the seed code puts the
# source at least 6 sigma from every verdict threshold.  The distinguishable
# state has a PT eigenvalue of exactly 0, so its separable/PPT label is
# decided by sampling noise and is left unchecked, as is any state on that
# boundary (for example the dephased singlet at eta = 1).
SOURCES = (
    ("singlet", singlet(), "certified_bell"),
    ("baseline-0.3", baseline(0.3), "certified_bell"),
    ("baseline-0.6", baseline(0.6), "certified_ppt"),
    ("distinguishable", rho_dist(), None),
    ("maximally-mixed", np.eye(4, dtype=complex) / 4, "separable_certified"),
)


# ---------------------------------------------------------------------------
# Output readers


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


# ---------------------------------------------------------------------------
# Commands and workloads

Check = Callable[[Path], list]


@dataclass(frozen=True)
class Command:
    """One gme-sim invocation: global options, subcommand argv and its output check."""

    label: str
    seed: int
    args: tuple
    out: Path
    check: Check

    def argv(self, out: Path | None = None) -> list[str]:
        return ["--seed", str(self.seed), "--out", str(out or self.out), *self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # of Command, run in order, repeated whole
    cold: Command  # representative command for the fresh-process measurement


def _check_certify(truth: np.ndarray, label: str | None) -> Check:
    def check(out: Path) -> list:
        doc = _json(out / "verdict.json")
        problems = []
        if label is not None and doc["entanglement_verdict"] != label:
            problems.append(f"verdict {doc['entanglement_verdict']} != {label}")
        if doc["converged"] is not True:
            problems.append("MLE not converged")
        f = fidelity(_matrix(doc["rho_hat"]), truth)
        if not f >= 0.99:
            problems.append(f"rho_hat fidelity to the source {f:.4f} < 0.99")
        return problems

    return check


def _check_scan(param: str) -> Check:
    # W(eta) = 2 eta - 1 on the dephased singlet, W(v) = 1 - 2 v on the
    # distinguishability family.
    def law(x):
        return 2 * x - 1 if param == "eta" else 1 - 2 * x

    def check(out: Path) -> list:
        rows = _csv_rows(out / f"scan_{param}.csv")
        problems = []
        if len(rows) != DEFAULT_GRID_POINTS:
            problems.append(f"scan_{param}.csv has {len(rows)} rows")
        err = max(abs(float(r[1]) - law(float(r[0]))) for r in rows)
        if not err <= 1e-12:
            problems.append(f"ideal witness off its law by {err:.3g}")
        for idx in range(len(rows)):
            doc = _json(out / f"tomography_{param}_{idx:02d}.json")
            if not doc["fidelity_to_truth"] >= 0.99:
                problems.append(f"point {idx}: fidelity_to_truth {doc['fidelity_to_truth']:.4f}")
            if doc["converged"] is not True:
                problems.append(f"point {idx}: MLE not converged")
        return problems

    return check


def _check_photonic_verify(ideal: bool) -> Check:
    def check(out: Path) -> list:
        doc = _json(out / "cz_verification.json")
        problems = []
        if doc["cz_check_passed"] is not True:
            problems.append("cz_check_passed is false")
        if ideal:
            if max(abs(p - 1 / 9) for p in doc["success_probabilities"]) > 1e-12:
                problems.append(f"success probabilities {doc['success_probabilities']} != 1/9")
            if abs(doc["hom_visibility"] - 0.8) > 1e-9:
                problems.append(f"HOM visibility {doc['hom_visibility']} != 0.8")
        return problems

    return check


def _check_hom_scan(grid: list) -> Check:
    def check(out: Path) -> list:
        problems = []
        vis = _json(out / "hom_summary.json")["visibility"]
        if abs(vis - 0.8) > 1e-9:
            problems.append(f"HOM visibility {vis} != 0.8")
        rows = _csv_rows(out / "hom_scan.csv")
        if len(rows) != len(grid):
            problems.append(f"hom_scan.csv has {len(rows)} rows, expected {len(grid)}")
        # Ideal R = 1/3 coupler: P(gamma) = R^2 + T^2 - 2 R T gamma^2.
        err = max(abs(float(r[2]) - (5 - 4 * float(r[0]) ** 2) / 9) for r in rows)
        if not err <= 1e-12:
            problems.append(f"coincidence probability off its law by {err:.3g}")
        if len(_csv_rows(out / "v_of_gamma.csv")) != len(grid):
            problems.append("v_of_gamma.csv row count differs from the grid")
        return problems

    return check


def _check_circuit(phi: float) -> Check:
    psi = np.array([1, 1, 1, np.exp(1j * phi)]) / 2

    def check(out: Path) -> list:
        problems = []
        err = np.max(np.abs(_matrix(_json(out / "state_spins.json")) - _projector(psi)))
        if not err <= 1e-12:
            problems.append(f"spin state off the closed form by {err:.3g}")
        neg = _json(out / "summary.json")["negativity"]
        if abs(neg - abs(math.sin(phi / 2)) / 2) > 1e-9:
            problems.append(f"negativity {neg} != |sin(phi/2)|/2")
        return problems

    return check


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 7]).integers(1, 2**31 - 1, n)]


def certify_bootstrap(seed: int, work: Path) -> Workload:
    seeds = _seeds(seed, len(SOURCES))
    cycle = []
    for i, (name, rho, label) in enumerate(SOURCES):
        path = work / f"counts_{name}.csv"
        path.write_text(counts_csv(rho, COUNTS_PER_SETTING, np.random.default_rng([seed, i])))
        cycle.append(Command(
            f"certify:{name}", seeds[i], ("certify", "--counts", str(path)),
            work / "out" / name, _check_certify(rho, label),
        ))
    return Workload("certify-bootstrap", tuple(cycle), cycle[0])


def scan_tomography(seed: int, work: Path) -> Workload:
    # Two eta scans per v scan: the eta and v scans differ in cost, and an
    # unequal mix keeps the latency median inside one command's distribution
    # instead of in the gap between two.
    params = ("eta", "v", "eta")
    seeds = _seeds(seed, len(params))
    cycle = tuple(
        Command(f"scan:{p}", s, ("scan", "--param", p), work / "out" / f"{p}{i}", _check_scan(p))
        for i, (p, s) in enumerate(zip(params, seeds))
    )
    return Workload("scan-tomography", cycle, cycle[0])


def optics_circuit(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    inner = np.sort(rng.uniform(0.0, 1.0, HOM_GRID_POINTS - 2))
    grid = [0.0, *(float(g) for g in inner), 1.0]
    config = work / "hom_config.json"
    config.write_text(json.dumps({"gamma_grid": grid}))
    phis = [float(p) for p in rng.uniform(0.1, 2 * math.pi - 0.1, 2)]
    s = _seeds(seed, 1)[0]
    out = work / "out"
    # Two fast circuit runs, two photonic checks and one hom-scan: the
    # latency median falls inside the photonic-verify runs.
    cycle = (
        Command("photonic-verify:ideal", s, ("photonic-verify", "--bs", "ideal"),
                out / "pv_ideal", _check_photonic_verify(True)),
        Command("photonic-verify:experimental", s, ("photonic-verify", "--bs", "experimental"),
                out / "pv_exp", _check_photonic_verify(False)),
        Command("hom-scan", s, ("--config", str(config), "hom-scan"),
                out / "hom", _check_hom_scan(grid)),
        *(Command(f"circuit:{i}", s, ("circuit", "--phi", repr(phi)),
                  out / f"circuit{i}", _check_circuit(phi)) for i, phi in enumerate(phis)),
    )
    return Workload("optics-circuit", cycle, cycle[-1])


WORKLOADS = {
    "certify-bootstrap": certify_bootstrap,
    "scan-tomography": scan_tomography,
    "optics-circuit": optics_circuit,
}
