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


def test_sloc_ends_quietly_when_the_reader_closes_the_pipe(tmp_path):
    # more lines than a pipe holds, so sloc is still writing when the
    # reader closes its end after one line
    source = tmp_path / "one_line_of_code.py"
    source.write_text("x = 1\n")
    with subprocess.Popen([sys.executable, str(ROOT / "tools" / "sloc.py"),
                           *[str(source)] * 5000], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().split() == ["1", str(source)]
        proc.stdout.close()
        assert proc.stderr.read() == ""
        assert proc.wait(timeout=60) == 1
