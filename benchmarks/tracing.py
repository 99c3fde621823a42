"""Span tracing of gme-sim from outside the package, and the per-layer metrics.

``Tracer.install`` replaces public functions of the gme-sim modules with
timing wrappers, rebinding every module-level alias of each function, so
calls made inside a module (for example ``monte_carlo_errors`` calling
``mle_state``) are traced and nest correctly.  ``DensityMatrix.__post_init__``
is wrapped on the class.  Each span records its name, start, end, parent span
and the invocation it belongs to, plus a count taken from the return value
where one is defined.  Spans stay in memory until the run ends.

Per-layer metrics are reported per traced invocation: ``calls`` counts
spans, ``busy_s`` sums the spans not nested in another span of the same
layer, ``self_s`` subtracts the time covered by child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from fractions import Fraction


def _mle_count(result, args, kwargs):
    _, _, converged, iterations, _ = result
    return int(iterations), bool(converged)


def _fock_terms(result, args, kwargs):
    return len(result.terms)


def _postselect_mass(result, args, kwargs):
    return float(result[1])


def _bytes_written(result, args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, function, layer, count taken from the call).  Several functions
# may report under one layer name.
TRACED = (
    ("qmath", "hermitian_eig", "qmath.hermitian_eig", None),
    ("qmath", "partial_trace", "qmath.partial_trace", None),
    ("qmath", "partial_transpose", "qmath.partial_transpose", None),
    ("circuit", "run_circuit", "circuit.run_circuit", None),
    ("circuit", "canonicalize_to_singlet", "circuit.canonicalize_to_singlet", None),
    ("noise", "dephase", "noise.states", None),
    ("noise", "dephased_singlet", "noise.states", None),
    ("noise", "baseline_state", "noise.states", None),
    ("noise", "distinguishable_state", "noise.states", None),
    ("noise", "mix", "noise.states", None),
    ("photonic", "evolve_two_photon", "photonic.evolve_two_photon", _fock_terms),
    ("photonic", "post_select_coincidence", "photonic.post_select_coincidence",
     _postselect_mass),
    ("photonic", "hom_coincidence", "photonic.hom_coincidence", None),
    ("photonic", "simulate_pipeline", "photonic.simulate_pipeline", None),
    ("photonic", "build_cz_network", "photonic.build_network", None),
    ("photonic", "build_full_network", "photonic.build_network", None),
    ("certify", "mle_state", "certify.mle_state", _mle_count),
    ("certify", "tomography_linear", "certify.tomography_linear", None),
    ("certify", "monte_carlo_errors", "certify.monte_carlo_errors", None),
    ("certify", "derived_quantities", "certify.derived_quantities", None),
    ("certify", "chsh_max", "certify.chsh_max", None),
    ("certify", "ppt_report", "certify.ppt_report", None),
    ("certify", "fidelity", "certify.fidelity", None),
    ("certify", "witness_w", "certify.witness_w", None),
    ("certify", "simulate_counts", "certify.simulate_counts", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "load_counts_csv", "cli.load_counts_csv", None),
    ("cli", "write_json", "cli.write_json", _bytes_written),
    ("cli", "write_csv", "cli.write_csv", _bytes_written),
)
VALIDATE = "qmath.DensityMatrix.validate"
MAIN = "cli.main"
CMD = "cli.cmd"  # every cli.cmd_* subcommand function
COVERING = (CMD, "cli.load_config", "cli.build_parser")

# Per-layer metrics: name -> unit.  Timings and counts are per traced invocation.
PER_LAYER = {
    "cli.main.busy_s": "s/cmd",
    "certify.mle_state.calls": "1/cmd",
    "certify.mle_state.busy_s": "s/cmd",
    "certify.mle_state.self_s": "s/cmd",
    "certify.mle_state.iterations": "1/cmd",
    "certify.mle_state.unconverged": "1/cmd",
    "certify.mle_state.ms_per_iteration": "ms",
    "certify.tomography_linear.calls": "1/cmd",
    "certify.tomography_linear.busy_s": "s/cmd",
    "certify.monte_carlo_errors.busy_s": "s/cmd",
    "certify.monte_carlo_errors.self_s": "s/cmd",
    "certify.bootstrap.converged_ratio": "ratio",
    "certify.derived_quantities.calls": "1/cmd",
    "certify.derived_quantities.busy_s": "s/cmd",
    "certify.chsh_max.busy_s": "s/cmd",
    "certify.ppt_report.busy_s": "s/cmd",
    "certify.fidelity.busy_s": "s/cmd",
    "certify.witness_w.busy_s": "s/cmd",
    "certify.simulate_counts.calls": "1/cmd",
    "certify.simulate_counts.busy_s": "s/cmd",
    "qmath.hermitian_eig.calls": "1/cmd",
    "qmath.hermitian_eig.busy_s": "s/cmd",
    "qmath.DensityMatrix.validate.calls": "1/cmd",
    "qmath.DensityMatrix.validate.busy_s": "s/cmd",
    "qmath.partial_trace.busy_s": "s/cmd",
    "qmath.partial_transpose.busy_s": "s/cmd",
    "noise.states.calls": "1/cmd",
    "noise.states.busy_s": "s/cmd",
    "photonic.evolve_two_photon.calls": "1/cmd",
    "photonic.evolve_two_photon.busy_s": "s/cmd",
    "photonic.fock_terms": "1/cmd",
    "photonic.post_select_coincidence.busy_s": "s/cmd",
    "photonic.postselect_mass": "ratio",
    "photonic.hom_coincidence.busy_s": "s/cmd",
    "photonic.simulate_pipeline.busy_s": "s/cmd",
    "photonic.build_network.busy_s": "s/cmd",
    "circuit.run_circuit.calls": "1/cmd",
    "circuit.run_circuit.busy_s": "s/cmd",
    "circuit.canonicalize_to_singlet.busy_s": "s/cmd",
    "cli.build_parser.busy_s": "s/cmd",
    "cli.load_config.busy_s": "s/cmd",
    "cli.load_counts_csv.busy_s": "s/cmd",
    "cli.write_json.calls": "1/cmd",
    "cli.write_json.busy_s": "s/cmd",
    "cli.write_csv.calls": "1/cmd",
    "cli.write_csv.busy_s": "s/cmd",
    "cli.bytes_written": "B/cmd",
    "cli.cmd.self_s": "s/cmd",
    "cli.span_coverage.min": "ratio",
    "cli.span_coverage.p10": "ratio",
}

# Counters that depend only on the inputs, never on timing.
DETERMINISTIC = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".iterations", ".unconverged", "_ratio", ".fock_terms",
                      ".postselect_mass", ".bytes_written"))
)


class Tracer:
    """Records spans of gme-sim calls while installed."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent, invocation, count]
        self.layer: dict[str, str] = {MAIN: MAIN, VALIDATE: VALIDATE}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._invocation = -1
        self._targets = []  # (function, wrapper)
        for mod, attr, layer, count in TRACED:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._targets.append((fn, self._wrap(f"{mod}.{attr}", layer, fn, count)))
        cli = modules["cli"]
        for attr in sorted(vars(cli)):
            if attr.startswith("cmd_") and callable(getattr(cli, attr)):
                fn = getattr(cli, attr)
                self._targets.append((fn, self._wrap(f"cli.{attr}", CMD, fn, None)))
        self._density = modules["qmath"].DensityMatrix
        self._validate = self._density.__post_init__
        self._validate_wrapped = self._wrap(VALIDATE, VALIDATE, self._validate, None)
        self._patches: list[tuple] = []

    def _wrap(self, name, layer, fn, count):
        self.layer[name] = layer
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._invocation, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[5] = count(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    pass  # the function changed shape; its counter reads as absent
            return result

        return traced

    def install(self) -> None:
        wrapper_of = {id(fn): wrapped for fn, wrapped in self._targets}
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapped = wrapper_of.get(id(value))
                if wrapped is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
        self._density.__post_init__ = self._validate_wrapped

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        self._density.__post_init__ = self._validate

    def invoke(self, main, argv):
        """Call ``main(argv)`` as the root span of a new invocation."""
        self._invocation += 1
        return self._wrap(MAIN, MAIN, main, None)(argv)

    def write(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, inv, count in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, inv, count]))
                fh.write("\n")


def layer_metrics(spans: list[list], layer: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of PER_LAYER from the spans of whole traced invocations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    iterations = unconverged = replicas = converged_replicas = fock_terms = written = 0
    masses: list[Fraction] = []
    for idx, (name, start, end, parent, _, count) in enumerate(spans):
        g = layer[name]
        dur = end - start
        calls[g] = calls.get(g, 0) + 1
        self_time[g] = self_time.get(g, 0.0) + dur - child_time[idx]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(layer[spans[p][0]])
            p = spans[p][3]
        if g not in ancestors:
            busy[g] = busy.get(g, 0.0) + dur
        if count is None:
            continue
        if g == "certify.mle_state":
            iterations += count[0]
            unconverged += not count[1]
            if "certify.monte_carlo_errors" in ancestors:
                replicas += 1
                converged_replicas += count[1]
        elif g == "photonic.evolve_two_photon":
            fock_terms += count
        elif g == "photonic.post_select_coincidence":
            masses.append(Fraction(count))
        elif g in ("cli.write_json", "cli.write_csv"):
            written += count
    # Share of each invocation's wall time inside the parser construction,
    # config loading and the subcommand function; the rest is parse_args,
    # dispatch and the wrappers themselves.
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0 and spans[parent][0] == MAIN and layer[name] in COVERING:
            covered[parent] += end - start
    coverage = [
        covered[idx] / (end - start)
        for idx, (name, start, end, _, _, _) in enumerate(spans)
        if name == MAIN
    ]
    n = calls.get(MAIN, 0)
    if n == 0:
        raise ValueError("no traced invocation")
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        g, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(g, 0) / n
        elif kind == "busy_s":
            out[metric] = busy.get(g, 0.0) / n
        elif kind == "self_s":
            out[metric] = self_time.get(g, 0.0) / n
    out["certify.mle_state.iterations"] = iterations / n
    out["certify.mle_state.unconverged"] = unconverged / n
    out["certify.mle_state.ms_per_iteration"] = (
        1e3 * busy.get("certify.mle_state", 0.0) / iterations if iterations else 0.0
    )
    out["certify.bootstrap.converged_ratio"] = converged_replicas / replicas if replicas else 0.0
    out["photonic.fock_terms"] = fock_terms / n
    out["photonic.postselect_mass"] = float(sum(masses) / len(masses)) if masses else 0.0
    out["cli.bytes_written"] = written / n
    out["cli.span_coverage.min"] = min(coverage)
    out["cli.span_coverage.p10"] = (
        statistics.quantiles(coverage, n=10)[0] if len(coverage) > 1 else coverage[0]
    )
    return out
