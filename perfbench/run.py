"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced in a fresh worker process and
the end-to-end metrics are reported; set-up is also repeated in further
fresh processes and ``setup_s`` is the median.  With ``--trace 1`` a worker
runs the workload untraced and then traced, and the per-layer metrics are
reported.  Informational lines (Python version, nproc, revision, tail
percentile) come first; the last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "listing", "maps", "series")
SETUP_RUNS = 11
DEADLINE_S = 170


def declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def revision():
    """Git commit of the checkout when it is a git work tree, else 'none'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest():
    """sha256 over the package sources, a revision stand-in outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "beckpart").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def worker(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "beckpart" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'beckpart'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            out = worker(args, "trace", deadline)
        else:
            # Half the extra set-ups before the timed run and half after, so
            # the median samples the machine over the whole run.
            setups = [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
            out = worker(args, "run", deadline)
            setups.append(out["metrics"]["setup_s"])
            setups += [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
            out["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    print(f"# python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"revision {revision()}, source {source_digest()}")
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    tail = out.pop("tail", None)
    if tail:
        print(f"# op_tail_ms is p{tail['percentile']:g} of the best-of-{tail['repeats']} "
              f"latencies of {tail['ops']} distinct ops ({tail['beyond']} beyond it)")
    units = declared_metrics(args.trace)
    if set(units) != set(out["metrics"]):
        print(f"perfbench: measured metrics {sorted(out['metrics'])} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in out["metrics"].items()}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
