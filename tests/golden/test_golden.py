"""Replay the golden corpus and compare it with the recorded manifest.

Exit codes, stderr lines and every output file that is not a fit must match
byte for byte; fit files match field by field within the fit bounds of
``corpus``.  ``rewrite_manifest.py`` records a new manifest.
"""

import json

from corpus import MANIFEST, compare, run_corpus


def test_corpus_matches_the_manifest(tmp_path):
    problems = compare(json.loads(MANIFEST.read_text()), run_corpus(tmp_path))
    assert not problems, "\n".join(problems)
