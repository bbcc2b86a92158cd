"""The README's library tour and command-line block run as written."""

import json
import re
import shlex
from pathlib import Path

from trishare.cli import cli_dispatch

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the tour creates ./store
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["plaintext"] == b"the payload"
    assert (tmp_path / "store" / "objects").is_dir()


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # The sh block under "## Command line", each line run in-process with
    # X:Y standing for the owner point its `grant --json` printed.
    section = README.read_text(encoding="utf-8").split("\n## Command line\n")[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line, comments=True)
                for line in block.group(1).replace("\\\n", "").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 14 and all(argv[0] == "trishare" for argv in commands)
    monkeypatch.chdir(tmp_path)
    report, memo = bytes(range(256)) * 40, b"meet at noon\n" * 100
    (tmp_path / "report.pdf").write_bytes(report)
    (tmp_path / "memo.txt").write_bytes(memo)
    owner_point = None
    for argv in commands:
        argv = [owner_point if arg == "X:Y" else arg for arg in argv[1:]]
        assert cli_dispatch(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "grant":
            point = json.loads(out)["owner_point"]
            owner_point = f"{point['x']}:{point['y']}"
        elif argv[0] == "reconstruct":
            assert out == "1234\n"
    assert (tmp_path / "report.pdf").read_bytes() == report
    assert (tmp_path / "memo.out").read_bytes() == memo
