"""tools/src_lines.py: the per-module line counts of src/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "src_lines.py"


def test_totals_match_plain_line_count():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True)
    *modules, last = proc.stdout.splitlines()[1:]
    total, code, name = last.split()
    assert name == "all"
    plain = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert int(total) == plain == sum(int(row.split()[0]) for row in modules)
    assert 0 < int(code) < int(total)


def test_code_only_skips_comments_docstrings_and_blanks():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from src_lines import count
    finally:
        sys.path.remove(str(SCRIPT.parent))
    source = ('"""Module\n docstring."""\n\n# comment\nx = """not a\ndocstring"""\n\n'
              'def f():\n    """Doc."""\n    return (1,\n            2)  # trailing\n')
    assert count(source) == (11, 5)
