"""The README's examples run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (section heading, code) of every python block, in order
BLOCKS = [
    (re.findall(r"^## (.+)$", TEXT[:match.start()], re.M)[-1], match.group(1))
    for match in re.finditer(r"```python\n(.*?)```", TEXT, re.S)
]


@pytest.mark.parametrize("section, code", BLOCKS, ids=[section for section, _ in BLOCKS])
def test_python_block_runs(section, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block may write files
    exec(compile(code, f"{README}: {section}", "exec"), {})
