"""Time the fixed ``beckpart`` runs in fresh processes.

Each run is a new Python process that calls ``beckpart.cli.main`` on the
command's arguments, with its output discarded, and then reports its own
peak resident set: VmHWM from /proc/self/status, or ``ru_maxrss`` where
there is no procfs.  The child reads its own peak because on Linux a
child's ``ru_maxrss`` starts from its parent's, which fork and exec carry
over.  Wall time is taken around the whole process, interpreter start-up
included.  Only the standard library is used.

    python tools/fixed_runs.py [--repeat 3] [--src SRC ...] [COMMAND ...]

runs every command (by default the fixed runs below) --repeat times under
each source tree given by --src (default: this checkout's src), the trees
alternating run by run so that drift of the host's speed falls on all of
them alike.  It prints one line per command and tree: the best wall time,
the largest peak and the exit codes seen.  A COMMAND is one quoted string,
such as "verify beck3 --r 6 --n-max 600".
"""

import argparse
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

FIXED_RUNS = (
    "verify beck3 --r 6 --n-max 300",
    "verify beck3 --r 6 --n-max 600",
    "verify series --r 3 --n-max 300",
    "verify beck2 --r 7 --n-max 2048",
    "count --family Or --r 3 --n 2048",
    "count --pairset A --r 2 --n 60",
    "count --pairset Prt --r 2 --t 1 --n 60",
    "count --pairset Prt --r 2 --t 1 --n 2048",
    "count --pairset Ad --r 7 --n 2048",
    "verify beck3 --r 20000 --n-max 30",
    "verify beck3 --r 20000 --n-max 30 --format json",
    "count --family Fbar --r 7 --t 1 --n 2048",
    "count --family Ostar --r 7 --t 1 --n 2048",
    "enumerate --family all --r 2 --n 55",
    "enumerate --family Ostar --r 3 --t 1 --n 52",
    "enumerate --family Tr --r 2 --n 80",
    "enumerate --family D1r --r 2 --n 70",
    "count --family Or --r 3 --n 8192",
    "verify glaisher --r 3 --n-max 8192",
    "count --family F1r --r 2 --n 8653",
)

_CHILD = """\
import resource, sys
from beckpart.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
try:
    peak = next(int(line.split()[1]) for line in open('/proc/self/status')
                if line.startswith('VmHWM:'))
except (OSError, StopIteration):  # no procfs: ru_maxrss, in KiB (bytes on macOS)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak >>= 10 if sys.platform == 'darwin' else 0
print(peak, file=sys.stderr)
sys.exit(code)
"""


def run_once(src, argv):
    """(wall seconds, peak KiB, exit code) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = done.stderr.strip().splitlines()
    peak = int(lines[-1]) if lines and lines[-1].isdigit() else -1
    return wall, peak, done.returncode


def main(argv=None):
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", default=FIXED_RUNS, help="beckpart arguments")
    parser.add_argument("--repeat", type=int, default=3, help="runs per command and tree")
    parser.add_argument("--src", action="append", type=Path, help="a source tree to put on "
                        "PYTHONPATH; give it once per tree to compare (default: ./src)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = args.src or [root / "src"]
    for command in args.commands:
        runs = {tree: [] for tree in trees}
        for _ in range(args.repeat):
            for tree in trees:
                runs[tree].append(run_once(tree, shlex.split(command)))
        for tree, results in runs.items():
            walls, peaks, codes = zip(*results)
            label = f"  [{tree}]" if len(trees) > 1 else ""
            print(f"{command}{label}: best {min(walls):.3f} s of {len(walls)}, peak "
                  f"{max(peaks) / 1024:.1f} MiB, exit {sorted(set(codes))}", flush=True)


if __name__ == "__main__":
    main()
