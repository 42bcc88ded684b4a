"""README's Python API example runs as written, read from the file."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Python API)", "exec"), namespace)
    plan, diag = namespace["plan"], namespace["diag"]
    assert plan.k > 0 and diag.token_counts[0] == 197 and len(diag.token_counts) == 25
    assert capsys.readouterr().out == f"{plan.k} {diag.token_counts}\n"
