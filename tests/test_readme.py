"""The README's library tour runs as written."""

import re
from pathlib import Path

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
