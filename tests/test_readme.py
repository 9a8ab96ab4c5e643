"""The README's Python snippets run as written and print what they promise."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_snippets_run(capsys):
    snippets = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    # the quick start, the ledger round and the incentive example
    for i, code in enumerate(snippets):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "audit clean" in out
    assert "323/500" in out
    assert "StrictlyPositive" in out
