"""The repository's tools, run as a reader of the README runs them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sloc(*args):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "sloc.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return [line.split(maxsplit=1) for line in done.stdout.splitlines()]


def test_sloc_counts_a_directory_as_its_python_files_in_sorted_order():
    rows = sloc("src/beckpart")
    *files, (total, label) = rows
    assert label == "total"
    assert int(total) == sum(int(count) for count, _ in files)
    names = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "beckpart").glob("*.py"))
    assert [path for _, path in files] == names
    assert rows == sloc(*names)  # the same counts as the files named one by one
