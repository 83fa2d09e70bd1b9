"""README's "Library use" block runs and prints the values in its comments."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_commented_values():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    documented = re.findall(r"^print\(.*\)\s+#\s*(\S+)", code, re.M)
    assert documented == ["12.875040924028363", "46.138125474491375"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == documented
