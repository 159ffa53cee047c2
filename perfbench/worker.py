"""One workload in one fresh process: set up, then run the timed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

``setup`` stops after set-up and reports its duration.  ``run`` also runs
whole cycles of the workload's ops for about S seconds, then the
workload's run-once ops, and reports the end-to-end metrics.  ``trace`` runs untraced cycles for S/2 seconds, then
installs the tracer and runs traced cycles for S/2 seconds, and reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up starts here, before the package is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Loop:
    """Closed loop, one client: whole cycles of ops until about ``seconds`` have passed.

    Every cycle runs each of the workload's distinct ops once, so each op is
    timed once per cycle on the same input.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies_ns = [[] for _ in workload.ops]
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0

    def run(self, seconds, first_cycle=0):
        start = time.perf_counter()
        cycle = 0
        while True:
            for index, op in enumerate(self.workload.ops):
                self.latencies_ns[index].append(self.one(op, first_cycle + cycle, index))
            cycle += 1
            # Whole cycles only, so every op is repeated equally often; stop
            # at the cycle boundary nearest to ``seconds``.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycle / 2 >= seconds:
                return first_cycle + cycle

    def one(self, op, cycle, index=None):
        """Run, time and check one op; return its latency in ns."""
        op.prepare()
        span = self.tracer.begin_op((cycle, index), op.tag) if self.tracer else None
        t0 = time.perf_counter_ns()
        try:
            result = op.run(cycle)
            error = None
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            result, error = None, exc
        elapsed = time.perf_counter_ns() - t0
        if span is not None:
            self.tracer.end_op(span)
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result, cycle))
            except Exception as exc:
                error = exc
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {op.key} (cycle {cycle}) failed: {error!r}", file=sys.stderr)
        self.bytes_out += op.bytes_out
        return elapsed

    def best_ms(self):
        """Each op's fastest repetition, in ms.

        An op repeats the same work, so its repetitions differ only by how
        fast the shared host ran at the time; the fastest one is the op's
        own cost.
        """
        return [min(ns) / 1e6 for ns in self.latencies_ns]

    def ops_per_s(self):
        """Distinct ops per second of a cycle in which each op takes its best time."""
        best = self.best_ms()
        return len(best) / (sum(best) / 1e3)


def end_to_end(loop, setup_s):
    """The end-to-end metrics, and where the tail percentile fell."""
    best = sorted(loop.best_ms())
    pct = loop.workload.tail_percentile
    tail = percentile(best, pct)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": statistics.median(best),
        "op_tail_ms": tail,
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": pct, "ops": len(best),
                     "repeats": min(len(ns) for ns in loop.latencies_ns),
                     "beyond": sum(1 for x in best if x > tail)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import beckpart  # the package under test, from this checkout's src/
    if Path(beckpart.__file__).resolve().parent != SRC / "beckpart":
        raise SystemExit(f"imported beckpart from {beckpart.__file__}, not from {SRC}")
    import spans
    import workloads

    digests = json.loads((HERE / "digests.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, digests)
    wl.warmup()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "run":
        loop = Loop(wl)
        loop.run(args.seconds)
        for op in wl.final_ops:
            loop.one(op, 0)
        metrics, tail = end_to_end(loop, setup_s)
        out = {"attempted": loop.attempted, "failed": loop.failed,
               "metrics": metrics, "tail": tail}
    else:
        plain = Loop(wl)
        next_cycle = plain.run(args.seconds / 2)
        tracer = spans.start_tracing()
        traced = Loop(wl, tracer)
        traced.run(args.seconds / 2, first_cycle=next_cycle)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        out = {"attempted": plain.attempted + traced.attempted,
               "failed": plain.failed + traced.failed,
               "metrics": spans.per_layer(tracer, traced, plain)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
