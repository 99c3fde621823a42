"""Command-line front end: configuration, experiment pipelines, file outputs.

Subcommands: circuit, photonic-verify, scan, hom-scan, simulate-counts,
certify.  All outputs are deterministic for a fixed (config, seed) pair and
carry a metadata header with the config hash, seed, artifact version and
basis convention.

Exit codes: 0 success, 2 parse/config error or out-of-range physics input,
3 numerical non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, certify, circuit, noise, photonic, qmath


class ParseError(Exception):
    pass


class VerificationFailure(Exception):
    pass


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFICATION = 4

DEFAULT_GRID = [round(0.05 * k, 2) for k in range(21)]
# Largest counts_per_setting: numpy's Poisson sampler rejects means above
# about 9.2e18, and a count this large is far beyond any experiment.
MAX_COUNTS_PER_SETTING = 10**15
# Largest mc_replicas: the bootstrap fits all replicas as one stack (98 MB
# peak RSS at 10^4 on four model sources), so millions would ask for several GB.
MAX_MC_REPLICAS = 10_000


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x, lo: float = -sys.float_info.max, hi: float = sys.float_info.max) -> bool:
    """An int or float in [lo, hi] (finite by default); JSON true/false and strings are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and lo <= x <= hi


@dataclass(frozen=True)
class ExperimentConfig:
    phi: float = math.pi
    eta_grid: list = field(default_factory=lambda: list(DEFAULT_GRID))
    v_grid: list = field(default_factory=lambda: list(DEFAULT_GRID))
    gamma_grid: list = field(default_factory=lambda: list(DEFAULT_GRID))
    bs: str = "ideal"
    counts_per_setting: int = 10_000
    mc_replicas: int = 100
    seed: int = 12345
    baseline_weight: float = noise.BASELINE_WEIGHT
    coherence_sigma_ps: float = 250.0
    output_dir: str = "out"

    def validate(self) -> None:
        """Type and range checks of every field, from a config file or a flag alike."""
        checks = [
            (name, isinstance(getattr(self, name), list)
             and all(_is_real(x, 0.0, 1.0) for x in getattr(self, name)),
             "a list of numbers in [0, 1]")
            for name in ("eta_grid", "v_grid", "gamma_grid")
        ] + [
            ("phi", _is_real(self.phi), "a finite number"),
            ("seed", _is_int(self.seed) and self.seed >= 0, "an integer >= 0"),
            ("counts_per_setting", _is_int(self.counts_per_setting)
             and 0 <= self.counts_per_setting <= MAX_COUNTS_PER_SETTING,
             f"an integer in [0, {MAX_COUNTS_PER_SETTING}]"),
            ("mc_replicas", _is_int(self.mc_replicas)
             and 2 <= self.mc_replicas <= MAX_MC_REPLICAS,
             f"an integer in [2, {MAX_MC_REPLICAS}]"),
            ("bs", isinstance(self.bs, str) and self.bs in photonic.BS_PRESETS,
             f"one of {sorted(photonic.BS_PRESETS)}"),
            ("baseline_weight", _is_real(self.baseline_weight, 0.0, 1.0), "a number in [0, 1]"),
            ("coherence_sigma_ps", _is_real(self.coherence_sigma_ps)
             and self.coherence_sigma_ps > 0, "a finite number > 0"),
            ("output_dir", isinstance(self.output_dir, str), "a string"),
        ]
        for name, ok, what in checks:
            if not ok:
                raise ParseError(f"{name} must be {what}, got {getattr(self, name)!r}")

    @functools.cached_property
    def hash(self) -> str:
        # Without output_dir, reruns into a different directory stay byte-identical.
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_dir"}
        blob = json.dumps(d, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @functools.cached_property
    def meta_json(self) -> _Json:
        """The ``meta`` object of every JSON output, rendered once per config (one
        command) as ``_json_text`` renders it one level down."""
        return _Json(_json_text(_meta(self), "\n  "))


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        text = _read_text(path, "config")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"config {path} is not a JSON object")
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ParseError(f"unknown config fields: {sorted(unknown)}")
        cfg = replace(cfg, **raw)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Serialization helpers


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "artifact_version": __version__,
        "basis_convention": circuit.BASIS_CONVENTION,
        "config_hash": cfg.hash,
        "seed": cfg.seed,
    }


def _read_text(path: str, what: str) -> str:
    """The text of ``path``; OSError or ValueError (text not UTF-8, a NUL byte in the
    path) -> ParseError naming ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory only if the open needs one;
    OSError or ValueError (a NUL byte or an unencodable character in the path) ->
    ParseError.  An existing file is overwritten in place, not truncated on open (on a
    ``discard``-mounted disk that frees every old block, at several times the cost of
    the write): it keeps its inode, links and mode, and is cut to the new length by
    ``os.ftruncate`` only if it was longer, which a device or FIFO never is.  The bytes
    go out by ``os.write`` on the descriptor, looping until a short write has sent the
    rest, with no Python file object.  An interrupted write leaves a torn file, the new
    head over the old tail."""
    data = memoryview(text.encode())
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        except (FileNotFoundError, NotADirectoryError):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            longer = os.fstat(fd).st_size > len(data)
            rest = data
            while rest:
                rest = rest[os.write(fd, rest):]
            if longer:
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Json(str):
    """JSON text already rendered at the indent where it is placed; ``_json_text``
    writes it as it is."""


@functools.cache
def _template(shape: tuple, newline: str) -> str:
    """The ``%`` template, one ``%r`` per float, of a non-empty float array of ``shape``
    rendered as ``json.dumps`` renders its ``tolist()`` after ``newline``."""
    if not shape:
        return "%r"
    inner = newline + "  "
    body = ("," + inner).join([_template(shape[1:], inner)] * shape[0])
    return "[" + inner + body + newline + "]"


def _json_text(doc, newline: str = "\n") -> str:
    """The text ``json.dumps`` gives ``doc`` with ``sort_keys=True``, ``indent=2`` and
    ``default=np.ndarray.tolist``, without json's pure-Python indenting encoder.  Each
    scalar takes json's own rendering.  A float64 ``ndarray`` that is non-empty and
    finite is one ``%`` operation on its memoized template, the one fast path; one that
    is empty or holds a NaN or Inf is rendered as its ``tolist()``, entry by entry, as
    any list is.  A ``_Json`` is written as it is.  A key that is not a string, or a
    value json rejects (a set, ``np.int64``, ``np.bool_``, an ``ndarray`` of any other
    dtype), raises TypeError."""
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = newline + "  "
        body = ("," + inner).join([_json_text(x, inner) for x in doc])
        return "[" + inner + body + newline + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            json.encoder.encode_basestring_ascii(key) + ": " + _json_text(val, inner)
            for key, val in sorted(doc.items())]) + newline + "}"
    if isinstance(doc, str):
        return doc if type(doc) is _Json else json.encoder.encode_basestring_ascii(doc)
    if isinstance(doc, float):
        text = float.__repr__(doc)
        return _JSON_NON_FINITE.get(text, text)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, np.ndarray) and doc.dtype == np.float64:
        if doc.size:
            text = _template(doc.shape, newline) % tuple(doc.ravel().tolist())
            if "n" not in text:  # no nan or inf, which json spells NaN and Infinity
                return text
        return _json_text(doc.tolist(), newline)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    """``_json_text`` of the payload with the config's ``meta`` object, rendered once
    per config, and one newline."""
    doc = {"meta": cfg.meta_json}
    doc.update(payload)
    _write_text(path, _json_text(doc) + "\n")


def write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    """``#`` metadata lines, the header joined by commas, and every data row formatted by
    one ``%`` operation over all cells, "%.17g" for a float and "%s" for any other cell.
    Every line, the ``#`` lines too, ends with "\n".  Callers write floats, ints and axis
    names, none of which a CSV reader needs quoted."""
    rows = list(rows)
    spec = "".join([",".join(["%.17g" if isinstance(x, float) else "%s" for x in row]) + "\n"
                    for row in rows])
    _write_text(path, "".join([f"# {key}: {json.dumps(val, sort_keys=True)}\n"
                               for key, val in sorted(_meta(cfg).items())])
                + ",".join(header) + "\n" + spec % tuple([x for row in rows for x in row]))


def _re_im(z: np.ndarray) -> np.ndarray:
    """The float array of the complex array ``z`` with one more axis, each entry an
    ``[re, im]`` pair: the one format of a complex array in every JSON output."""
    return np.stack([z.real, z.imag], -1)


def state_json(matrix: np.ndarray) -> dict:
    return {"dims": [2, 2], "matrix": _re_im(matrix)}


def pure_state_json(amplitudes: np.ndarray) -> dict:
    """The (16,) amplitudes of a ``circuit.run_circuit`` state."""
    return {"dims": [2, 2, 2, 2], "amplitudes": _re_im(amplitudes)}


def load_state_json(path: str) -> np.ndarray:
    text = _read_text(path, "state")
    try:
        raw = json.loads(text)
        if not all(_is_real(x) for row in raw["matrix"] for z in row for x in z):
            raise ValueError("matrix entries must be finite numbers, not true/false, text or null")
        m = [[complex(re, im) for re, im in row] for row in raw["matrix"]]
        dims, m = tuple(raw.get("dims", (2, 2))), np.asarray(m, dtype=complex)
        if dims != (2, 2) or m.shape != (4, 4):
            raise ValueError(f"expected a two-qubit state, got dims {list(dims)} "
                             f"and a matrix of shape {m.shape}")
        return qmath.check_density(m)  # the one state from outside, checked where it enters
    except (KeyError, ValueError, TypeError, qmath.QmathError) as exc:
        raise ParseError(f"cannot read state {path}: {exc}") from exc


def write_counts_csv(path: Path, cfg: ExperimentConfig, n: np.ndarray) -> None:
    """The (9, 4) counts ``n`` of ``certify.PAULI_SETTINGS``, each row led by its two axis names."""
    names = [[a, b] for a in certify.AXIS_NAMES for b in certify.AXIS_NAMES]
    write_csv(path, cfg, ["setting_a", "setting_b", "n_pp", "n_pm", "n_mp", "n_mm"],
              [ab + row for ab, row in zip(names, n.tolist(), strict=True)])


# ``total_expected`` is unused; it stays because benchmarks/test_benchmark.py passes it.
def load_counts_csv(path: str, total_expected: float | None = None) -> certify.Counts:
    """The dataset of a counts CSV, each row checked as it is read: ParseError names the
    file line of the first bad row."""
    def parse_axis(tok: str, lineno: int) -> np.ndarray:
        tok = tok.strip()
        if tok in certify.AXES:
            return certify.AXES[tok]
        parts = tok.split(":")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: bad setting axis {tok!r}")
        return np.array([float(p) for p in parts])

    bases, counts = [], []
    lines = list(io.StringIO(_read_text(path, "counts")))
    # Metadata comments come before the header; each row's line number in the
    # file is the line it ends on, also when a quoted field spans lines.
    skip = next((i for i, ln in enumerate(lines) if not ln.startswith("#")), len(lines))
    reader = csv.reader(lines[skip:])
    rows = [(skip + reader.line_num, row) for row in reader]
    if not rows or [h.strip() for h in rows[0][1]] != [
        "setting_a", "setting_b", "n_pp", "n_pm", "n_mp", "n_mm",
    ]:
        raise ParseError(f"{path}:{rows[0][0] if rows else 1}: bad counts header")
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"{path}:{lineno}: expected 4 counts, got {max(len(row) - 2, 0)}")
        try:
            pair = np.array([parse_axis(row[0], lineno), parse_axis(row[1], lineno)])
            n = [int(x) for x in row[2:6]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if any(c > MAX_COUNTS_PER_SETTING for c in n):
            raise ParseError(f"{path}:{lineno}: count above {MAX_COUNTS_PER_SETTING} in {n}")
        with np.errstate(all="ignore"):  # NaN, inf and an overflowing norm fail the test
            unit = np.abs(np.linalg.norm(pair, axis=1) - 1.0) <= 1e-12
        if not unit.all():
            q = np.flatnonzero(~unit)[0]
            raise ParseError(f"{path}:{lineno}: axis {'ab'[q]} is not a finite unit Bloch "
                             f"vector: {pair[q].tolist()}")
        if any(c < 0 for c in n):
            raise ParseError(f"{path}:{lineno}: negative count in {n}")
        bases.append(pair)
        counts.append(n)
    return certify.Counts(bases, counts)


# ---------------------------------------------------------------------------
# Model states addressed by name


def model_state(name: str, cfg: ExperimentConfig, eta: float | None, v: float | None):
    """The (4, 4) density matrix of a named model."""
    if name == "singlet":
        return noise.SINGLET
    if name == "dephased":
        return noise.dephased_singlets(eta if eta is not None else 0.0)
    if name == "baseline":
        return noise.baseline_states(eta if eta is not None else 0.0, cfg.baseline_weight)
    if name == "distinguishable":
        return noise.distinguishable_states(v if v is not None else 1.0)
    if name == "maximally-mixed":
        return np.eye(4, dtype=complex) / 4
    # "circuit", the last name argparse's choices admit
    _, final = circuit.run_circuit(cfg.phi)
    return circuit.singlet_frame(circuit.reduced_spin_state(final))


def _simulated_counts(rho: np.ndarray, cfg: ExperimentConfig) -> certify.Counts:
    """Counts of the (4, 4) state ``rho`` at the Pauli pairs, drawn from the config's seed."""
    n = certify.simulate_counts_batch(
        rho[None], certify.PAULI_SETTINGS, cfg.counts_per_setting, [cfg.seed])
    return certify.Counts(certify.PAULI_SETTINGS, n[0])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_circuit(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    checkpoint, final = circuit.run_circuit(cfg.phi)
    spins = circuit.reduced_spin_state(final)
    canonical = circuit.singlet_frame(spins)
    q = certify.derived_batch(canonical[None], noise.SINGLET)
    write_json(out / "state_full.json", cfg, {
        "circuit": circuit.circuit_json(cfg.phi),
        "checkpoint_after_free_fall": pure_state_json(checkpoint),
        "state": pure_state_json(final),
    })
    write_json(out / "state_spins.json", cfg, state_json(spins))
    write_json(out / "state_canonical.json", cfg, state_json(canonical))
    write_json(out / "summary.json", cfg, {
        "phi": cfg.phi,
        "witness": float(q["witness"][0]),
        "chsh_max": float(q["chsh_max"][0]),
        "negativity": float(q["negativity"][0]),
        "fidelity_to_singlet": float(q["fidelity_to_target"][0]),
    })
    return EXIT_OK


def cmd_photonic_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    r = photonic.BS_PRESETS[cfg.bs] if args.reflectivity is None else args.reflectivity
    channel, probs = photonic.cz_channel(photonic.build_cz_network(r))
    amps = np.diagonal(channel)
    fid = photonic.channel_fidelity_to_cz(channel)
    vis = photonic.hom_visibility(r)
    # A reflectivity slightly off 1/3 (the experimental preset) still counts as
    # a working CZ; a fidelity this far below 1 means the wrong gate.
    cz_ok = fid >= 0.99 and np.max(np.abs(probs - probs[0])) < 0.05
    write_json(out / "cz_verification.json", cfg, {
        "reflectivity": r,
        "truth_table_amplitudes": _re_im(amps),
        "amplitude_magnitudes": np.abs(amps),
        "success_probabilities": probs,
        "process_fidelity_to_cz": float(fid),
        "hom_visibility": float(vis),
        "hom_visibility_ideal_theory": 0.8,
        "cz_check_passed": bool(cz_ok),
        "diagnostic": (
            "post-selected channel matches CZ"
            if cz_ok
            else "post-selected amplitudes deviate from an equal-magnitude "
            "CZ pattern; the network does not implement a CZ gate"
        ),
    })
    if not cz_ok:
        raise VerificationFailure(
            f"CZ verification failed: process fidelity {fid:.6f}, "
            f"branch amplitude magnitudes {[float(round(abs(a), 6)) for a in amps]}"
        )
    return EXIT_OK


def cmd_scan(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    param = args.param
    grid = cfg.eta_grid if param == "eta" else cfg.v_grid
    if not grid:
        raise ParseError(f"{param}_grid is empty")
    g = len(grid)
    if param == "eta":
        ideals = noise.dephased_singlets(grid)
        states = np.concatenate([ideals, noise.baseline_states(grid, cfg.baseline_weight)])
    else:  # the baseline of a v scan is its ideal family
        ideals = states = noise.distinguishable_states(grid)
    # One kernel call over the ideal states, then the baseline states of an eta scan.
    q = certify.derived_batch(states)
    columns = (q["witness"][:g], q["witness"][-g:], q["chsh_max"][:g], q["negativity"][:g],
               q["min_pt_eigenvalue"][:g])
    rows = [[float(x), *vals] for x, *vals in zip(grid, *(c.tolist() for c in columns))]
    converged = True
    if cfg.counts_per_setting > 0:
        # Each point's counts from its own seed, then one stacked fit.
        seeds = [int(np.random.SeedSequence([cfg.seed, idx]).generate_state(1)[0])
                 for idx in range(g)]
        counts = certify.simulate_counts_batch(
            ideals, certify.PAULI_SETTINGS, cfg.counts_per_setting, seeds)
        fitted = certify.fit(certify.PAULI_SETTINGS, counts, ideals)
        # Every point's [re, im] block from one stack, and its scalars as Python values.
        blocks = _re_im(fitted["rho"])
        ll, fid, neg, conv, iters, dropped = (fitted[key].tolist() for key in (
            "log_likelihood", "fidelity_to_target", "negativity", "converged", "iterations",
            "dropped_settings"))
        for idx, x in enumerate(grid):
            write_json(out / f"tomography_{param}_{idx:02d}.json", cfg, {
                param: float(x),
                "rho_hat": {"dims": [2, 2], "matrix": blocks[idx]},
                "log_likelihood": ll[idx],
                "fidelity_to_truth": fid[idx],
                "ppt_eigenvalues": fitted["ppt_eigenvalues"][idx],
                "negativity": neg[idx],
                "converged": conv[idx],
                "iterations": iters[idx],
                "dropped_settings": dropped[idx],
            })
        converged = fitted["converged"].all()
    header = [param, "witness_ideal", "witness_baseline", "chsh_max", "negativity",
              "pt_min_eigenvalue"]
    write_csv(out / f"scan_{param}.csv", cfg, header, rows)
    summary: dict = {"param": param, "grid": np.asarray(grid, dtype=float)}
    if param == "eta":
        summary["baseline_witness_zero_crossing"] = noise.baseline_witness_zero_crossing(
            cfg.baseline_weight
        )
    write_json(out / f"scan_{param}_summary.json", cfg, summary)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def cmd_hom_scan(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    r = photonic.BS_PRESETS[cfg.bs]
    grid = [float(g) for g in cfg.gamma_grid]
    probs, weights, visibility = photonic.hom_scan(grid, r)
    rows = [[g, math.inf if g == 0.0 else 0.0 if g >= 1.0
             else cfg.coherence_sigma_ps * math.sqrt(-2.0 * math.log(g)), p]
            for g, p in zip(grid, probs.tolist())]
    vrows = [[g, v] for g, v in zip(grid, weights.tolist())]
    write_csv(out / "hom_scan.csv", cfg, ["gamma", "delay_ps", "coincidence_prob"], rows)
    write_csv(out / "v_of_gamma.csv", cfg, ["gamma", "v"], vrows)
    write_json(out / "hom_summary.json", cfg, {
        "reflectivity": r,
        "visibility": visibility,
        "visibility_ideal_theory": 0.8,
    })
    return EXIT_OK


def cmd_simulate_counts(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    for flag, value, readers in (("--eta", args.eta, ("dephased", "baseline")),
                                 ("--v", args.v, ("distinguishable",))):
        if value is not None and args.model not in readers:
            raise ParseError(f"--model {args.model} does not read {flag}")
    data = _simulated_counts(model_state(args.model, cfg, args.eta, args.v), cfg)
    write_counts_csv(out / "counts.csv", cfg, data.n)
    return EXIT_OK


def _verdict(summary: dict, errors: dict) -> str:
    keys = ("chsh_fixed", "witness", "min_pt_eigenvalue")
    (s, w, min_pt), (s_sig, w_sig, pt_sig) = ([d[k] for k in keys] for d in (summary, errors))
    if s - 3 * s_sig > 2.0:
        return "certified_bell"
    if w + 3 * w_sig < 0.0:
        return "certified_witness"
    if min_pt + 3 * pt_sig < 0.0:
        return "certified_ppt"
    # Strictly PPT two-qubit states are separable (Peres 1996; Horodecki et al. 1996).
    if min_pt - 3 * pt_sig > 0.0:
        return "separable_certified"
    return "inconclusive"


def cmd_certify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(cfg.output_dir)
    if args.counts is not None and args.counts_per_setting is not None:
        raise ParseError("--counts does not read --counts-per-setting")
    data = (load_counts_csv(args.counts) if args.counts is not None
            else _simulated_counts(load_state_json(args.state), cfg))
    # Fidelity to the singlet, CHSH at its optimal settings: bootstrap's defaults.
    errors, mc_converged, mc_slowest, q = certify.bootstrap(data, cfg.mc_replicas, cfg.seed)
    summary = {key: val.tolist() for key, val in q.items() if key not in certify.FIT_FIELDS}
    verdict = _verdict(summary, errors)
    write_json(out / "verdict.json", cfg, {
        "entanglement_verdict": verdict,
        "rho_hat": state_json(q["rho"]),
        "log_likelihood": float(q["log_likelihood"]),
        "converged": bool(q["converged"]),
        "iterations": int(q["iterations"]),
        "dropped_settings": int(q["dropped_settings"]),
        "quantities": summary,
        "error_intervals": errors,
        "mc_replicas": cfg.mc_replicas,
        "mc_converged": mc_converged,
        "mc_max_iterations": mc_slowest,
    })
    return EXIT_OK if q["converged"] else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Rejections raise ParseError, reported as any bad input is; subparsers share the class."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gme-sim",
        description="Simulator of the mediated-entanglement circuit, its photonic "
        "implementation and the entanglement-certification battery.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--out", dest="output_dir", metavar="OUT",
                        help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)
    per_setting = argparse.ArgumentParser(add_help=False)
    per_setting.add_argument("--counts-per-setting", type=int, dest="counts_per_setting",
                             help="simulated counts per setting; 0 disables scan's tomography")

    p = sub.add_parser("circuit", help="run the abstract circuit and dump states")
    p.add_argument("--phi", type=float, help="free-fall phase in radians")

    p = sub.add_parser("photonic-verify", help="verify the post-selected CZ network")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--bs", help="preset name")
    g.add_argument("--reflectivity", type=float, help="beam-splitter reflectivity")

    p = sub.add_parser("scan", parents=[per_setting],
                       help="decoherence / distinguishability scans")
    p.add_argument("--param", choices=["eta", "v"], required=True)

    p = sub.add_parser("hom-scan", help="two-photon interference dip scan")
    p.add_argument("--bs", help="preset name")

    p = sub.add_parser("simulate-counts", parents=[per_setting],
                       help="write simulated tomography counts")
    p.add_argument("--model", default="singlet",
                   choices=["singlet", "dephased", "baseline", "distinguishable",
                            "maximally-mixed", "circuit"])
    p.add_argument("--eta", type=float)
    p.add_argument("--v", type=float)

    p = sub.add_parser("certify", parents=[per_setting], help="full certification battery")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--counts", help="counts CSV input")
    g.add_argument("--state", help="state JSON input")
    p.add_argument("--mc-replicas", type=int, dest="mc_replicas")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
        # Looked up at call time, so a ``cmd_*`` rebound after import is the one that runs.
        run = {"circuit": cmd_circuit, "photonic-verify": cmd_photonic_verify,
               "scan": cmd_scan, "hom-scan": cmd_hom_scan,
               "simulate-counts": cmd_simulate_counts, "certify": cmd_certify}[args.command]
        return run(load_config(args.config, overrides), args)
    except (ParseError, certify.CertifyError, qmath.QmathError) as exc:
        code, line = EXIT_PARSE, f"error: {exc}"
    except VerificationFailure as exc:
        code, line = EXIT_VERIFICATION, f"verification failure: {exc}"
    print(line.replace("\0", "\\0").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
