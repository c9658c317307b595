"""Every example in README.md runs as written, from the repository root: each ```python
block, each `tailtest` line of the ```sh blocks through cli.main, and the plan block
as the plan file the `--plan plan.txt` line names."""
import re
import shlex
from pathlib import Path

import pytest

from tailtest import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list[str]:
    """The text of each block fenced as ```lang, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


PYTHON_BLOCKS = fenced("python")
COMMANDS = [line.strip() for block in fenced("sh") for line in block.splitlines()
            if line.strip().startswith("tailtest ")]
PLAN_BLOCK = README.split("### Plan files", 1)[1].split("```", 2)[1]


def test_every_example_is_in_a_block_the_tests_read():
    assert len(PYTHON_BLOCKS) == README.count("```python") > 0
    assert COMMANDS == [line for line in README.splitlines() if line.startswith("tailtest ")]
    assert "tailtest simulate --plan plan.txt --format md" in COMMANDS


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs(block, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(ROOT)
    (tmp_path / "plan.txt").write_text(PLAN_BLOCK, encoding="utf-8")
    argv = [str(tmp_path / word) if word == "plan.txt" else word
            for word in shlex.split(line)[1:]]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert (bool(out), err) == (True, "")
