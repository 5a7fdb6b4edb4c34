"""The README names only what the package exports, and its library example runs."""
import re
from pathlib import Path

import explat

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_entry_points_are_exported():
    text = README.read_text()
    start = text.index("Key entry points:")
    paragraph = text[start : text.index("\n\n", start)]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert len(names) > 10
    assert [nm for nm in names if nm not in explat.__all__] == []


def test_readme_library_example_runs(monkeypatch, capsys):
    # the example opens examples/ by a relative path: it runs from the repo root
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    monkeypatch.chdir(README.parent)
    exec(text[start : text.index("```", start)], {})
    assert len(capsys.readouterr().out.splitlines()) == 3
