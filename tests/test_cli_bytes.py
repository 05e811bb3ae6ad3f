"""tools/cli_bytes.py: the parent-against-change comparison of CLI output bytes."""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "cli_bytes.py"
TINY = [("moments", "--x", "100", "--k", "2"),
        ("sandwich", "--x", "300", "--k", "1", "--L", "10", "--workers", "2", "--chunk", "128")]


def _main():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from cli_bytes import main
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return main


def test_same_tree_is_same(capsys):
    assert _main()([str(ROOT)], TINY) == 0
    assert capsys.readouterr().out.split("\n")[:-1] == [f"same  {' '.join(a)}" for a in TINY]


def test_changed_digits_differ(capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "cannonball" / "cli.py"
    source = cli.read_text()
    assert "REAL_DIGITS = 30 " in source
    cli.write_text(source.replace("REAL_DIGITS = 30 ", "REAL_DIGITS = 29 "))
    assert _main()([str(tmp_path)], TINY) == 1
    assert capsys.readouterr().out.split("\n")[:-1] == [f"DIFF  {' '.join(a)}" for a in TINY]


def test_changed_message_differs(capsys, tmp_path):
    # exit status and output bytes agree, and only stderr tells the trees apart
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    equidist = tmp_path / "src" / "cannonball" / "equidist.py"
    source = equidist.read_text()
    assert source.count('"truncation K must be >= 1"') == 1
    equidist.write_text(source.replace('"truncation K must be >= 1"', '"K must be >= 1"'))
    error = ("discrepancy", "--x", "10", "--K", "0")
    assert _main()([str(ROOT)], [error]) == 0
    assert _main()([str(tmp_path)], [*TINY, error]) == 1
    assert capsys.readouterr().out.split("\n")[:-1] == (
        [f"same  {' '.join(error)}"] + [f"same  {' '.join(a)}" for a in TINY]
        + [f"DIFF  {' '.join(error)}"])
