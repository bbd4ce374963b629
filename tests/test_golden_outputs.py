"""The stamped outputs of a fixed list of commands are the committed bytes.

``golden_outputs.py`` holds the command list and writes
``golden/outputs.sha256``; a change that moves a line names the line and why.
"""

import pytest

import golden_outputs


def assert_same_lines(got: list[str], want: list[str]) -> None:
    changed = sorted({line.split("  ", 1)[1] for line in set(got) ^ set(want)})
    assert not changed, f"digests changed: {changed}"
    assert got == want  # the same lines in the same order


def test_stamped_outputs_match_the_committed_digests(tmp_path):
    want = golden_outputs.GOLDEN.read_text().splitlines()
    assert_same_lines(golden_outputs.digest_lines(tmp_path), want)


@pytest.mark.parametrize("instance", ["tiny", "chain", "resnet", "vit"])  # smallest first
def test_numpy_free_commands_in_fresh_interpreters_match_the_committed_digests(
        tmp_path, instance):
    # The lines of `instance`'s commands, in the committed order; ``check``,
    # ``extract`` and ``compare-latency-models`` ran without numpy loaded.
    def of_instance(lines):
        return [line for line in lines if line.split("  ", 1)[1].split("/")[1] == instance]

    want = of_instance(golden_outputs.GOLDEN.read_text().splitlines())
    assert want
    got = golden_outputs.digest_lines(tmp_path, (instance,), fresh=True)
    assert_same_lines(of_instance(got), want)
