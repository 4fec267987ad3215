"""The README's code must run against the current public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_snippet_runs():
    # the first python block is the "Library tour"; removing or renaming a
    # name it uses breaks this test rather than the docs
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["curve"].mean_fidelity.shape == (25,)
