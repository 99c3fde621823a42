"""Replay the golden corpus and compare it with the recorded manifest.

Exit codes, stderr lines and every output file that is not a fit must match
byte for byte; fit files match field by field within the fit bounds of
``corpus``.  ``rewrite_manifest.py`` records a new manifest.  The optics
commands of the corpus must also write the same bytes under OpenBLAS's Haswell
kernel as under the kernel this process loaded, and the circuit's simulated
counts the same bytes under its Sandybridge kernel.
"""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import COMMANDS, INPUTS, MANIFEST, compare, run_corpus
from gmesim import cli


def test_corpus_matches_the_manifest(tmp_path):
    problems = compare(json.loads(MANIFEST.read_text()), run_corpus(tmp_path))
    assert not problems, "\n".join(problems)


# The optics commands whose every output byte must not depend on the BLAS kernel.
OPTICS = ("photonic-ideal", "photonic-experimental", "photonic-r0.5", "hom-scan",
          "hom-scan-irregular")


def _x86_64_with(flag: str) -> bool:
    cpuinfo = Path("/proc/cpuinfo")
    return (platform.machine() in ("x86_64", "AMD64") and cpuinfo.exists()
            and flag in cpuinfo.read_text().split())


def _compare_under(kernel: str, argvs: dict, root: Path) -> tuple[list, list]:
    """Run each ``argvs`` command with ``--out root/<kernel>/<name>`` in one fresh
    interpreter under OpenBLAS's ``kernel``, which the variable selects only when the
    library loads, and with ``--out root/host/<name>`` in this process.  Asserts equal
    exit codes and file lists; returns the files, and those whose bytes differ."""
    script = ("import json, sys\nfrom gmesim import cli\n"
              "print(json.dumps([cli.main(['--out', out, *argv])"
              " for out, argv in json.loads(sys.argv[1])]))")
    runs = [(str(root / kernel / name), argv) for name, argv in argvs.items()]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes = [cli.main(["--out", str(root / "host" / name), *argv])
             for name, argv in argvs.items()]
    assert json.loads(done.stdout.splitlines()[-1]) == codes
    files = [sorted(p.relative_to(root / side) for p in (root / side).rglob("*") if p.is_file())
             for side in ("host", kernel)]
    assert files[0] == files[1] and files[0]
    return files[0], [str(p) for p in files[0]
                      if (root / "host" / p).read_bytes() != (root / kernel / p).read_bytes()]


@pytest.mark.skipif(not _x86_64_with("avx2"),
                    reason="OpenBLAS's Haswell kernel needs x86-64 with AVX2")
def test_optics_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    for name in ("grids.json", "irregular_gamma.json"):
        (tmp_path / name).write_text(INPUTS[name](), newline="")
    argvs = {name: [a.replace("{root}", str(tmp_path)) for a in argv]
             for name, argv in COMMANDS if name in OPTICS}
    assert argvs.keys() == set(OPTICS)
    files, differ = _compare_under("Haswell", argvs, tmp_path)
    # One file from each photonic-verify, three from each hom-scan.
    assert len(files) == 3 * 1 + 2 * 3
    assert not differ, f"differ under OPENBLAS_CORETYPE=Haswell: {differ}"


@pytest.mark.skipif(not _x86_64_with("avx"),
                    reason="OpenBLAS's Sandybridge kernel needs x86-64 with AVX")
def test_circuit_counts_do_not_depend_on_the_blas_kernel(tmp_path):
    # The canonical circuit states differ by about 1e-17 around exact zeros between
    # kernels; floored Poisson means draw the same counts from either.
    argvs = {}
    for phi in (math.pi, 0.7, 2.5):
        config = tmp_path / f"phi-{phi:.2f}.json"
        config.write_text(json.dumps({"phi": phi}))
        argvs[config.stem] = ["--config", str(config), "simulate-counts", "--model", "circuit"]
    files, differ = _compare_under("Sandybridge", argvs, tmp_path)
    assert len(files) == 3
    assert not differ, f"differ under OPENBLAS_CORETYPE=Sandybridge: {differ}"
