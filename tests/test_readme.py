import os
import re
import shlex

from gcn_cert.cli import TRAIN_CONFIG_KEYS, build_parser

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


def test_readme_cli_invocations_parse():
    """Every `gcn-cert ...` command in the README's CLI block parses as written."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, flags=re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert {argv[0] for argv in commands} == {"gcn-cert"}
    assert [argv[1] for argv in commands] == ["train", "certify", "curve"]
    for argv in commands:
        assert build_parser().parse_args(argv[1:]).command == argv[1]
