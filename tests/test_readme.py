"""The README's library example runs, and every ``irsbf.<name>`` it cites exists."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import irsbf

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_runs_and_its_checks_read_true():
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    checks = [line for line in out.getvalue().splitlines() if line in ("True", "False")]
    assert checks and all(line == "True" for line in checks), out.getvalue()


def test_every_cited_name_resolves():
    names = sorted(set(re.findall(r"\birsbf\.([A-Za-z_]\w*)", README)))
    assert names
    missing = [
        name for name in names
        if not hasattr(irsbf, name) and importlib.util.find_spec(f"irsbf.{name}") is None
    ]
    assert missing == []
