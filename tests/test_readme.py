"""The README's "Library" example, run as written, so the text stays tied
to the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_documented_results():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert (scope["alpha"], scope["beta"]) == (
        ((2, 7, 9), (4, 15), (10, 12)), ((9,), (11, 12, 13, 14)))
    assert (scope["sets"], scope["count"]) == ([(4, 9, 12)], 3)
