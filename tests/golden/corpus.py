"""A fixed list of ``gme-sim`` commands, replayed in-process, and their recorded outputs.

``run_corpus(root)`` writes the generated inputs under ``root``, runs every
command with its outputs in ``root/<name>`` and returns the manifest of that
run: the numpy version, the sha256 of each generated input and, per command,
its argv, exit code, stderr and output files.  A fit file (``verdict.json``,
``tomography_*.json``) is recorded as its parsed fields, any other file as its
sha256.  ``compare`` checks a run against a recorded manifest.  Paths under
``root`` appear as ``{root}`` in argv and stderr, so a manifest does not depend
on where the corpus ran.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from gmesim import cli

MANIFEST = Path(__file__).with_name("manifest.json")

# Fit outputs move by a few ulp when anything before the EM stop does, so they
# are compared field by field within these bounds; every other file by sha256.
FLOAT_TOL = 1e-7
LOG_LIKELIHOOD_TOL = 1e-9

GRIDS = {"eta_grid": [0.0, 0.5, 1.0], "v_grid": [0.0, 0.5, 1.0],
         "gamma_grid": [0.0, 0.3, 0.7, 1.0]}
MODELS = {"singlet": [], "dephased": ["--eta", "0.3"], "baseline": ["--eta", "0.2"],
          "distinguishable": ["--v", "0.6"], "maximally-mixed": [], "circuit": []}
REPLICAS = ["--mc-replicas", "10"]

COMMANDS = [
    ("circuit-pi", ["circuit"]),
    ("circuit-0.7", ["circuit", "--phi", "0.7"]),
    ("circuit-2.5", ["circuit", "--phi", "2.5"]),
    ("photonic-ideal", ["photonic-verify", "--bs", "ideal"]),
    ("photonic-experimental", ["photonic-verify", "--bs", "experimental"]),
    ("photonic-r0.5", ["photonic-verify", "--reflectivity", "0.5"]),
    ("hom-scan", ["--config", "{root}/grids.json", "hom-scan"]),
    *((f"scan-{p}", ["--config", "{root}/grids.json", "scan", "--param", p,
                     "--counts-per-setting", "1000"]) for p in ("eta", "v")),
    *((f"counts-{m}", ["simulate-counts", "--model", m, *flags]) for m, flags in MODELS.items()),
    *((f"certify-{m}", ["certify", "--counts", f"{{root}}/counts-{m}/counts.csv", *REPLICAS])
      for m in MODELS),
    ("certify-tetrahedral", ["certify", "--counts", "{root}/tetrahedral.csv", *REPLICAS]),
    ("certify-state", ["certify", "--state", "{root}/circuit-0.7/state_canonical.json",
                       *REPLICAS]),
    # Rejections: each exit code and stderr line is part of the record.
    ("reject-phi", ["circuit", "--phi", "nan"]),
    ("reject-eta", ["simulate-counts", "--model", "dephased", "--eta", "1.5"]),
    ("reject-flag", ["simulate-counts", "--model", "singlet", "--v", "0.5"]),
    ("reject-bs", ["hom-scan", "--bs", "lossy"]),
    ("reject-state", ["certify", "--state", "{root}/bad_state.json"]),
    ("reject-incomplete", ["certify", "--counts", "{root}/incomplete.csv"]),
    ("reject-axis", ["certify", "--counts", "{root}/off_unit_axis.csv"]),
    ("reject-negative", ["certify", "--counts", "{root}/negative.csv"]),
    ("reject-two-bad-rows", ["certify", "--counts", "{root}/two_bad_rows.csv"]),
    ("reject-non-hermitian", ["certify", "--state", "{root}/non_hermitian.json"]),
    ("reject-counts-per-setting", ["certify", "--counts", "{root}/counts-singlet/counts.csv",
                                   "--counts-per-setting", "10", *REPLICAS]),
    # One count per setting on the default grid: grid point 5 (eta 0.25) draws nothing.
    ("scan-empty-point", ["--seed", "461", "scan", "--param", "eta",
                          "--counts-per-setting", "1"]),
]

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
COUNTS_HEADER = "setting_a,setting_b,n_pp,n_pm,n_mp,n_mm\n"


def _tetrahedral_counts() -> str:
    """Counts CSV of 0.9 |S><S| + 0.1 I/4 at the 16 pairs of tetrahedral axes: the
    expected counts at 1000 per setting, rounded, built with numpy alone so no program
    change moves them."""
    s = np.array([0, -1, 1, 0]) / np.sqrt(2)
    rho = 0.9 * np.outer(s, s) + 0.1 * np.eye(4) / 4
    axes = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    rows = []
    for a in axes:
        for b in axes:
            proj = [(np.eye(2) + sign * np.einsum("i,ijk->jk", axis, SIGMA)) / 2
                    for axis in (a, b) for sign in (1, -1)]
            p = [np.trace(rho @ np.kron(pa, pb)).real for pa in proj[:2] for pb in proj[2:]]
            tokens = [":".join(format(x, ".17g") for x in axis) for axis in (a, b)]
            rows.append(",".join([*tokens, *(str(int(c)) for c in np.rint(1000 * np.array(p)))]))
    return COUNTS_HEADER + "\n".join(rows) + "\n"


INPUTS = {
    "grids.json": lambda: json.dumps(GRIDS, sort_keys=True),
    "tetrahedral.csv": _tetrahedral_counts,
    "bad_state.json": lambda: json.dumps({"dims": [2, 2, 2],
                                          "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)]
                                                     for i in range(4)]}),
    "incomplete.csv": lambda: COUNTS_HEADER + "X,X,10,0,0,10\nY,Y,10,0,0,10\nZ,Z,0,10,10,0\n",
    "off_unit_axis.csv": lambda: "# source: hand-written\n" + COUNTS_HEADER
    + "X,X,10,0,0,10\nZ,0:0:1.00000000001,10,0,0,10\n",
    "negative.csv": lambda: COUNTS_HEADER + "X,X,10,0,0,10\nY,Y,10,-1,0,10\n",
    "two_bad_rows.csv": lambda: COUNTS_HEADER
    + "X,X,10,0,0,10\nY,Y,10,-1,0,10\nZ,nan:0:1,10,0,0,10\n",
    "non_hermitian.json": lambda: json.dumps({"matrix": [[[0.25 * (i == j) + 0.1 * (j == i + 1),
                                                           0.0] for j in range(4)]
                                                         for i in range(4)]}),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_fit(path: Path) -> bool:
    return path.name == "verdict.json" or path.name.startswith("tomography_")


def run_corpus(root: Path) -> dict:
    """Run the corpus under ``root`` and return its manifest."""
    inputs = {}
    for name, text in INPUTS.items():
        (root / name).write_text(text(), newline="")
        inputs[name] = _sha256(root / name)
    commands = []
    for name, argv in COMMANDS:
        argv = ["--out", f"{{root}}/{name}", *argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([a.replace("{root}", str(root)) for a in argv])
        out = root / name
        files = {p.relative_to(root).as_posix():
                 json.loads(p.read_text()) if _is_fit(p) else _sha256(p)
                 for p in sorted(out.rglob("*")) if p.is_file()}
        commands.append({"name": name, "argv": argv, "exit": code,
                         "stderr": err.getvalue().replace(str(root), "{root}"), "files": files})
    return {"numpy": np.__version__, "inputs": inputs, "commands": commands}


def _compare_fields(want, got, where: str) -> list[str]:
    """Mismatches of a fit file's fields: labels, ints and bools exactly, floats within
    ``FLOAT_TOL`` (``LOG_LIKELIHOOD_TOL`` for ``log_likelihood``)."""
    if type(want) is not type(got):
        return [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in _compare_fields(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [m for k, (w, g) in enumerate(zip(want, got))
                for m in _compare_fields(w, g, f"{where}[{k}]")]
    if isinstance(want, float):
        tol = LOG_LIKELIHOOD_TOL if where.endswith(".log_likelihood") else FLOAT_TOL
        if want == got or abs(want - got) <= tol:
            return []
    elif want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def compare(want: dict, got: dict) -> list[str]:
    """Every difference of the run ``got`` from the recorded manifest ``want``."""
    if want["numpy"] != got["numpy"]:
        return [f"the manifest was recorded with numpy {want['numpy']}, "
                f"this run has numpy {got['numpy']}"]
    problems = [f"input {name}: sha256 differs" for name in want["inputs"]
                if want["inputs"][name] != got["inputs"].get(name)]
    if [c["name"] for c in want["commands"]] != [c["name"] for c in got["commands"]]:
        return problems + ["the command list differs from the manifest's"]
    for w, g in zip(want["commands"], got["commands"]):
        for key in ("argv", "exit", "stderr"):
            if w[key] != g[key]:
                problems.append(f"{w['name']}: {key} {w[key]!r} != {g[key]!r}")
        if w["files"].keys() != g["files"].keys():
            problems.append(f"{w['name']}: files {sorted(w['files'])} != {sorted(g['files'])}")
            continue
        for path, want_file in w["files"].items():
            if isinstance(want_file, str):
                if want_file != g["files"][path]:
                    problems.append(f"{path}: sha256 differs")
            else:
                problems += _compare_fields(want_file, g["files"][path], path)
    return problems
