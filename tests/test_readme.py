"""README's library example runs and prints what README says it prints."""

import contextlib
import io
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines(keepends=True)
    golden = (ROOT / "tests" / "data" / "sigma_certificate.json").read_text(encoding="utf-8")
    assert [line.rstrip("\n") for line in lines[:4]] == [
        "M12", str(20160 * 2520**8), "pass", json.loads(golden)["conclusion"],
    ]
    assert "".join(lines[4:]) == golden
