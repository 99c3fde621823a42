"""Rewrite ``manifest.json`` from a run of the golden corpus on this tree.

    PYTHONPATH=src python tests/golden/rewrite_manifest.py

Before it writes, it prints every difference of the run from the manifest it
replaces, as ``corpus.compare`` reports them.  A change that rewrites the
manifest lists those changed entries, with their old and new values, in
CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from corpus import MANIFEST, compare, run_corpus

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        manifest = run_corpus(Path(root))
    if MANIFEST.exists():
        for problem in compare(json.loads(MANIFEST.read_text()), manifest):
            print(f"changed: {problem}")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['commands'])} commands)")
