"""The library example in README.md runs and gives the accuracy it shows."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    with open(README) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    iterations, error = capsys.readouterr().out.split()
    assert int(iterations) > 0
    assert float(error) < 1e-3
