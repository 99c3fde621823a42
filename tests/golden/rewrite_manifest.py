"""Rewrite ``manifest.json`` from a run of the golden corpus on this tree.

    PYTHONPATH=src python tests/golden/rewrite_manifest.py

A change that rewrites the manifest lists every changed entry, with its old
and new values, in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from corpus import MANIFEST, run_corpus

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        manifest = run_corpus(Path(root))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest['commands'])} commands)")
