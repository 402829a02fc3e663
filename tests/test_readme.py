"""The README's ``python`` examples run against the code as it stands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README.md holds no python block"
    monkeypatch.chdir(tmp_path)  # an example that writes files writes them here
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
