import os
import re

from gcn_cert.cli import TRAIN_CONFIG_KEYS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_tour_runs(capsys):
    """The README's Python quick tour runs as written and prints a status."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() in ("robust", "non_robust", "undecided")


def test_readme_lists_every_train_config_key():
    """The README's "Train config keys" list is cli.TRAIN_CONFIG_KEYS, in order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listed = re.search(r"### Train config keys\n\n`([^`]*)`", text).group(1)
    assert [item.split()[0] for item in listed.split(",")] == list(TRAIN_CONFIG_KEYS)
