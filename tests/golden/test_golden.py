"""Replay the golden corpus and compare it with the recorded manifest.

Exit codes, stderr lines and every output file that is not a fit must match
byte for byte; fit files match field by field within the fit bounds of
``corpus``.  ``rewrite_manifest.py`` records a new manifest.  The optics
commands of the corpus must also write the same bytes under OpenBLAS's Haswell
kernel as under the kernel this process loaded.
"""

import json
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


def _has_avx2() -> bool:
    cpuinfo = Path("/proc/cpuinfo")
    return (platform.machine() in ("x86_64", "AMD64") and cpuinfo.exists()
            and "avx2" in cpuinfo.read_text().split())


@pytest.mark.skipif(not _has_avx2(), reason="OpenBLAS's Haswell kernel needs x86-64 with AVX2")
def test_optics_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # One fresh interpreter under OpenBLAS's Haswell kernel, which the variable
    # selects only when the library loads, against this process's own kernel.
    for name in ("grids.json", "irregular_gamma.json"):
        (tmp_path / name).write_text(INPUTS[name](), newline="")
    argvs = {name: [a.replace("{root}", str(tmp_path)) for a in argv]
             for name, argv in COMMANDS if name in OPTICS}
    assert argvs.keys() == set(OPTICS)
    script = ("import json, sys\nfrom gmesim import cli\n"
              "print(json.dumps([cli.main(['--out', out, *argv])"
              " for out, argv in json.loads(sys.argv[1])]))")
    runs = [(str(tmp_path / "haswell" / name), argv) for name, argv in argvs.items()]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes = [cli.main(["--out", str(tmp_path / "host" / name), *argv])
             for name, argv in argvs.items()]
    assert json.loads(done.stdout.splitlines()[-1]) == codes
    files = [sorted(p.relative_to(tmp_path / kernel) for p in (tmp_path / kernel).rglob("*")
                    if p.is_file()) for kernel in ("host", "haswell")]
    # One file from each photonic-verify, three from each hom-scan.
    assert files[0] == files[1] and len(files[0]) == 3 * 1 + 2 * 3
    differ = [str(p) for p in files[0]
              if (tmp_path / "host" / p).read_bytes() != (tmp_path / "haswell" / p).read_bytes()]
    assert not differ, f"differ under OPENBLAS_CORETYPE=Haswell: {differ}"
