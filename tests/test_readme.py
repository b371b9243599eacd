"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_documented_minimum():
    text = README.read_text()
    [block] = re.findall(r"```python\n(.*?)```", text, re.S)
    [documented] = re.findall(r"^report\.numeric_min\s+# (\S+)", block, re.M)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert repr(namespace["report"].numeric_min) == documented
