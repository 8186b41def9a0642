"""Every ```python block of README.md runs as written."""

import re

import pytest

from oracles import ROOT

BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M
)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, "README.md", "exec"), {})
