"""The README's Python examples run as written.

Every ```python block of README.md is executed in order, in one namespace
(later blocks use names earlier ones define), so the documented API cannot
drift from the code.
"""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    # The quick start's detection ran on its collusion scenario.
    assert namespace["scenario"].plan.kind == "collusion"
    assert 0.0 <= namespace["f1"] <= 1.0
