"""The stamped outputs of a fixed list of commands are the committed bytes.

``golden_outputs.py`` holds the command list and writes
``golden/outputs.sha256``; a change that moves a line names the line and why.
"""

import golden_outputs


def test_stamped_outputs_match_the_committed_digests(tmp_path):
    want = golden_outputs.GOLDEN.read_text().splitlines()
    got = golden_outputs.digest_lines(tmp_path)
    changed = sorted({line.split("  ", 1)[1] for line in set(got) ^ set(want)})
    assert not changed, f"digests changed: {changed}"
    assert got == want  # the same lines in the same order
