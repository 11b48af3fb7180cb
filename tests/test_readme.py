"""The examples in README.md: the library example runs and gives the
accuracy it shows, and the YAML example is a valid configuration."""

import os
import re

import yaml

from ipdg.config import build_problem, parse_config

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


def test_readme_yaml_example_builds():
    # the documented configuration passes the schema and builds its problem,
    # so the schema cannot drift from the example
    with open(README) as f:
        blocks = re.findall(r"```yaml\n(.*?)```", f.read(), flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(yaml.safe_load(blocks[0]))
    problem = build_problem(cfg)
    assert problem.system.name == "poisson-flat"
    assert problem.solver == {"method": "cg", "tol": 1e-10, "max_iter": 2000, "restart": 50}
    assert problem.handle.n_primal_dofs == 100
