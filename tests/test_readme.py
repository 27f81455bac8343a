"""The README's library examples run against the package as it is, so a
renamed or deleted public name cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks, "README.md holds no ```python block"
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
