"""Benchmark of gme-sim through its command-line entry point.

    python3 benchmarks/run.py --workload certify-bootstrap --seed 1 --seconds 30 --trace 0

One client calls ``gmesim.cli.main(argv)`` in this process as a closed loop:
each command starts when the previous one returns, and whole cycles of the
workload's commands run until ``--seconds`` is used up.  Every command's
output files are checked.  With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` the loop alternates untraced and traced cycles
and the per-layer metrics come from the traced ones (see tracing.py).

The program is imported from ``src/`` next to this directory, never from an
installed copy.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A human-readable report
and an info block come before it; the run record, with every raw sample,
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = ROOT / ".bench_out"
MODULES = ("qmath", "circuit", "noise", "photonic", "certify", "cli")

SETUP_REPEATS = 8  # fresh interpreters importing gmesim.cli
COLD_REPEATS = 12  # fresh processes running the workload's representative command
IMPORT_REPEATS = 3  # fresh interpreters under -X importtime, traced run only
SUBPROCESS_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
# Time of kernel() on a quiet host (2-vCPU Intel Xeon VM, Python 3.11).  A
# shared host's speed can swing by 1.6x for tens of seconds at a time; the
# program and the kernel slow down together, so every reported time is
# multiplied by the host scale REFERENCE_S / (mean kernel time just before
# and just after it).
REFERENCE_S = 0.0016

END_TO_END = {"cmds_per_s": "1/s", "cmd_p50_ms": "ms", "setup_s": "s", "cold_cmd_s": "s"}
RUN_LAYER = {
    "trace.overhead_ms": "ms/cmd",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.gmesim_self_s": "s",
}
PER_LAYER = {**tracing.PER_LAYER, **RUN_LAYER}


class ProgramMissing(Exception):
    pass


def load_program() -> dict:
    """Import the gme-sim modules from this checkout's src/."""
    if not (SRC / "gmesim" / "cli.py").is_file():
        raise ProgramMissing(f"no gme-sim source at {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"gmesim.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "gmesim":
        raise ProgramMissing(f"gmesim imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def timed_subprocess(argv: list, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - start, proc


def kernel() -> float:
    """Time a fixed piece of interpreter work, in seconds: the host-speed probe."""
    start = time.perf_counter()
    total = 0
    for k in range(30_000):
        total += k * k
    return time.perf_counter() - start


# A fresh interpreter times kernel() just before and after the measured body,
# on whichever CPU it was given, and writes both times as its last stderr line.
CHILD = "import sys, time\n" + inspect.getsource(kernel) + """
before = kernel()
try:
    {body}
finally:
    sys.stderr.write(f"\\nkernel {{before!r}} {{kernel()!r}}\\n")
"""


def info_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "gmesim_version": getattr(sys.modules.get("gmesim"), "__version__", None),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Runner:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, problems: list) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def check(self, cmd: workloads.Command, out: Path, returncode) -> None:
        self.attempted += 1
        if returncode != 0:
            self.fail(cmd.label, [f"exit code {returncode}"])
            return
        try:
            problems = cmd.check(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            self.fail(cmd.label, problems)

    def run(self, cmd: workloads.Command, tracer=None, out: Path | None = None) -> float:
        """Run one command in-process; return its latency in seconds."""
        out = out or cmd.out
        argv = cmd.argv(out)
        start = time.perf_counter()
        try:
            rc = tracer.invoke(self.cli.main, argv) if tracer else self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code
        except Exception:  # the program crashed: record it and keep measuring
            rc = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = time.perf_counter() - start
        self.check(cmd, out, rc)
        return latency

    def rerun_identical(self, cmd: workloads.Command) -> None:
        """Run ``cmd`` twice into separate directories and compare every file."""
        first = cmd.out.with_name(cmd.out.name + "_a")
        second = cmd.out.with_name(cmd.out.name + "_b")
        self.run(cmd, out=first)
        self.run(cmd, out=second)
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        other = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        self.attempted += 1
        differ = [str(f) for f in files if (first / f).read_bytes() != (second / f).read_bytes()]
        if files != other or differ:
            self.fail(f"{cmd.label} rerun", [f"outputs differ: {differ or 'file sets'}"])

    def fresh(self, body: str, flags=()) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run ``body`` in a fresh interpreter; return its wall time, host scale and process.

        The wall time leaves out the two kernel timings around the body.
        """
        seconds, proc = timed_subprocess(
            [sys.executable, *flags, "-c", CHILD.format(body=body)], self.work)
        try:
            _, before, after = proc.stderr.rstrip().rsplit("\n", 1)[-1].split()
            before, after = float(before), float(after)
        except ValueError:  # the child died before timing its kernel
            return seconds, 1.0, proc
        return seconds - before - after, 2 * REFERENCE_S / (before + after), proc

    def cold(self, cmd: workloads.Command, out: Path) -> tuple[float, float]:
        """Run ``cmd`` in a fresh interpreter as ``python -m gmesim.cli`` does."""
        argv = ["gmesim.cli", *cmd.argv(out)]
        seconds, scale, proc = self.fresh(
            f"import runpy; sys.argv = {argv!r}; "
            "runpy.run_module('gmesim.cli', run_name='__main__', alter_sys=True)")
        self.check(cmd, out, proc.returncode)
        return seconds, scale

    def fresh_import(self, flags=()) -> tuple[float, float, str]:
        """Import gmesim.cli in a fresh interpreter; return its wall time, scale and stderr."""
        seconds, scale, proc = self.fresh("import gmesim.cli", flags)
        self.attempted += 1
        if proc.returncode != 0:
            self.fail("import gmesim.cli", [proc.stderr.strip()[-200:]])
        return seconds, scale, proc.stderr


def timed_loop(runner: Runner, workload: workloads.Workload, seconds: float, tracer=None,
               probes=()):
    """Whole cycles, closed loop, until the next cycle would overrun ``seconds``.

    With a tracer, even cycles run untraced and odd cycles traced.  The
    ``probes`` (fresh-process measurements) run between commands at even
    intervals of loop time, so they sample the same stretch of host time as
    the in-process loop; their own time is left out of the loop's clock.
    Returns (label, latency, host scale) for every untraced command, the
    scale taken from kernel() run just before and just after it, and the
    scaled in-process time of each cycle, split by traced.
    """
    probes = list(probes)
    due = [(i + 0.5) * seconds / len(probes) for i in range(len(probes))]
    samples: list[tuple[str, float, float]] = []
    cycle_time: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        scaled = []
        for cmd in workload.cycle:
            while due and due[0] <= time.perf_counter() - start - paused:
                t0 = time.perf_counter()
                due.pop(0)
                probes.pop(0)()
                paused += time.perf_counter() - t0
            before = kernel()
            if traced:
                tracer.install()
            try:
                latency = runner.run(cmd, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            scale = 2 * REFERENCE_S / (before + kernel())
            scaled.append(latency * scale)
            if not traced:
                samples.append((cmd.label, latency, scale))
        cycle_time[traced].append(sum(scaled))
        k += 1
        elapsed = time.perf_counter() - start - paused
        if k >= (2 if tracer else 1) and elapsed + elapsed / k > seconds:
            for probe in probes:
                probe()
            return samples, cycle_time


def import_breakdown(runs: list) -> dict:
    """Medians over ``-X importtime`` runs: wall, numpy cumulative, gmesim self time."""
    numpy_s, gmesim_s = [], []
    for _, _, stderr in runs:
        numpy_us = gmesim_us = 0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or line.count("|") != 2:
                continue
            self_us, cum_us, name = (f.strip() for f in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # the column header
            if name == "numpy":
                numpy_us = int(cum_us)
            if name.split(".")[0] == "gmesim":
                gmesim_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        gmesim_s.append(gmesim_us / 1e6)
    return {
        "import.total_s": statistics.median(s for s, _, _ in runs),
        "import.numpy_s": statistics.median(numpy_s),
        "import.gmesim_self_s": statistics.median(gmesim_s),
    }


def traced_run(runner: Runner, workload: workloads.Workload, modules: dict, seconds: float,
               spans_path: Path):
    """Per-layer metrics: alternating untraced and traced cycles, plus -X importtime."""
    imports = [runner.fresh_import(("-X", "importtime")) for _ in range(IMPORT_REPEATS)]
    runner.rerun_identical(workload.cycle[0])
    tracer = tracing.Tracer(modules)
    origin = time.perf_counter()
    _, cycle_time = timed_loop(runner, workload, seconds, tracer)
    metrics = tracing.layer_metrics(tracer.spans, tracer.layer)
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(cycle_time[True]) - statistics.median(cycle_time[False])
    ) / len(workload.cycle)
    metrics.update(import_breakdown(imports))
    n_traced = len(cycle_time[True]) * len(workload.cycle)
    notes = {k: f"(n={n_traced} traced invocations)" for k in PER_LAYER}
    notes["trace.overhead_ms"] = (f"(median scaled cycle, {len(cycle_time[True])} traced vs "
                                  f"{len(cycle_time[False])} untraced cycles)")
    for k in RUN_LAYER:
        if k.startswith("import."):
            notes[k] = f"(median of {IMPORT_REPEATS} fresh interpreters, -X importtime)"
    if tracer.missing:
        notes["cli.main.busy_s"] += f"; not found, so not traced: {tracer.missing}"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path, origin)
    return metrics, PER_LAYER, notes, {"cycle_time_s": cycle_time}


def untraced_run(runner: Runner, workload: workloads.Workload, seconds: float):
    """End-to-end metrics: the in-process loop with fresh-process probes spread through it."""
    setup: list[tuple[float, float]] = []  # (wall time, host scale)
    cold: list[tuple[float, float]] = []

    def setup_probe():
        setup.append(runner.fresh_import()[:2])

    def cold_probe():
        cold.append(runner.cold(workload.cold, runner.work / "cold" / str(len(cold))))

    probes = sorted([((i + 0.5) / SETUP_REPEATS, 0, setup_probe) for i in range(SETUP_REPEATS)]
                    + [((i + 0.5) / COLD_REPEATS, 1, cold_probe) for i in range(COLD_REPEATS)],
                    key=lambda p: p[:2])
    runner.rerun_identical(workload.cycle[0])
    loop, _ = timed_loop(runner, workload, seconds, probes=[p for _, _, p in probes])
    n = len(loop)
    raw = [t for _, t, _ in loop]
    scaled = [t * scale for _, t, scale in loop]
    metrics = {
        "cmds_per_s": n / sum(scaled),
        "cmd_p50_ms": 1e3 * statistics.median(scaled),
        "setup_s": statistics.median(t * scale for t, scale in setup),
        # The lower quartile: a fresh process sees the host's speed swings
        # with no averaging, and its upper half spreads the most.
        "cold_cmd_s": statistics.quantiles([t * scale for t, scale in cold], n=4)[0],
    }
    notes = {
        "cmds_per_s": f"(n={n} invocations; unscaled {n / sum(raw):.4g})",
        "cmd_p50_ms": f"(n={n}; unscaled {1e3 * statistics.median(raw):.4g})",
        "setup_s": f"(median of {SETUP_REPEATS} fresh interpreters importing gmesim.cli;"
                   f" unscaled {statistics.median(t for t, _ in setup):.4g})",
        "cold_cmd_s": f"(lower quartile of {COLD_REPEATS} fresh interpreters running"
                      f" `gmesim.cli {workload.cold.args[0]}`; unscaled"
                      f" {statistics.quantiles([t for t, _ in cold], n=4)[0]:.4g})",
    }
    if n >= P90_MIN_SAMPLES:
        metrics["cmd_p90_ms"] = 1e3 * statistics.quantiles(scaled, n=10)[-1]
        notes["cmd_p90_ms"] = f"(n={n}; reported, not gated)"
    else:
        notes["cmd_p90_ms"] = f"not reported: n={n} < {P90_MIN_SAMPLES}"
    print(f"host scale: median {statistics.median(s for _, _, s in loop):.3f} over the loop; "
          f"times are scaled to a host where the reference kernel takes {REFERENCE_S} s")
    return metrics, END_TO_END, notes, {"loop": loop, "setup": setup, "cold": cold}


def report(name: str, value, unit: str, note: str) -> None:
    shown = f"{value:>14.6g}" if value is not None else f"{'-':>14}"
    print(f"  {name:<40} {shown} {unit:<7} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        modules = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load gme-sim: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"gme-sim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        runner = Runner(modules["cli"], work)
        if args.trace:
            metrics, units, notes, samples = traced_run(
                runner, workload, modules, args.seconds,
                RECORDS / f"spans-{args.workload}.jsonl")
        else:
            metrics, units, notes, samples = untraced_run(runner, workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = info_block()
    print("info: " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        report(name, metrics[name], unit, notes[name])
    if not args.trace:
        report("cmd_p90_ms", metrics.get("cmd_p90_ms"), "ms", notes["cmd_p90_ms"])
    report("fail_ratio", runner.failed / runner.attempted, "ratio",
           f"({runner.failed} failed of {runner.attempted} operations)")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    RECORDS.mkdir(exist_ok=True)
    record = {"args": vars(args), "info": info, "problems": runner.problems,
              "reference_s": REFERENCE_S, "samples": samples, **result}
    (RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
