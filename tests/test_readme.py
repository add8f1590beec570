"""Every python block of README.md runs as written, from the repository
root, so the library example keeps up with the library's signatures."""

import re

from conftest import ROOT


def test_readme_python_blocks_run(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    monkeypatch.chdir(ROOT)  # the examples open configs/ by relative path
    for block in blocks:
        # padded with the lines before it, so a traceback names README lines
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
