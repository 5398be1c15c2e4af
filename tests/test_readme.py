"""Replays the README's shell session through the CLI, so the two cannot drift.

Each command of the ``sh`` block under "Command line" runs through
``cli.main`` in a scratch directory.  ``printf '…' > f`` writes a file,
``> f`` saves stdout, ``\\`` continues a line, and ``# exit N`` states the
exit code; a command without one must exit 0.
"""

import re
import shlex
from pathlib import Path

from cospectra.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _session() -> list[tuple[list[str], int]]:
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            expected = re.fullmatch(r"\s*exit (\d+)\s*", comment)
            commands.append((shlex.split(command), int(expected.group(1)) if expected else 0))
    return commands


def test_readme_session_runs_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    session = _session()
    assert len(session) >= 10
    for argv, expected in session:
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        if argv[0] == "printf":
            Path(target).write_text(argv[1].encode().decode("unicode_escape"))
            continue
        assert argv[0] == "cospectra", argv
        capsys.readouterr()
        assert main(argv[1:]) == expected, argv
        if target is not None:
            Path(target).write_text(capsys.readouterr().out)
