"""Every file and stream of a fixed set of CLI runs has the bytes recorded
in ``golden.json``, which ``make_golden.py`` writes."""

import json

import pytest

from make_golden import GOLDEN, digests, fingerprint


def test_outputs_match_golden_digests(tmp_path):
    """Models, shadows and their reports, explain reports and charts, and
    sweep and synth output are byte-identical to the recorded run.  The
    digests hold only for the numpy and OpenBLAS they were made with; under
    others the test skips and names both."""
    golden = json.loads(GOLDEN.read_text())
    running = fingerprint()
    if golden["fingerprint"] != running:
        pytest.skip(f"golden.json was made with {golden['fingerprint']}, this "
                    f"run has {running}; tests/make_golden.py rewrites it")
    found = digests(tmp_path)
    expected = golden["digests"]
    changed = sorted(key for key in expected.keys() | found.keys()
                     if expected.get(key) != found.get(key))
    assert not changed, f"bytes differ from golden.json: {changed}"
