"""Command-line front end.

Subcommands: ``enumerate``, ``count``, ``verify``, ``bijection``,
``diagram``, ``series``.  Exit codes: 0 on success or all checks passing,
1 when a verification fails (the report is still emitted), 2 on usage or
domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import bijections, families, qseries, stats
from .families import Family, PairSet
from .partitions import (
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    modular_diagram,
    parse_partition,
)

IDENTITIES = ("beck3", "beck1", "beck2", "glaisher", "series")

# map -> (forward, inverse, needs t); "xi-inv" is xi_inverse in both directions
_BIJECTIONS = {
    "xi": (bijections.xi_forward, bijections.xi_inverse, False),
    "xi-inv": (bijections.xi_inverse, bijections.xi_inverse, False),
    "phi": (bijections.phi_forward, bijections.phi_inverse, False),
    "psi1": (bijections.psi1_forward, bijections.psi1_inverse, True),
    "psi2": (bijections.psi2_forward, bijections.psi2_inverse, True),
    "psi-o": (bijections.psi_o_forward, bijections.psi_o_inverse, False),
    "psi-d": (bijections.psi_d_forward, bijections.psi_d_inverse, False),
    "psi-t": (bijections.psi_t_forward, bijections.psi_t_inverse, False),
    "zeta": (bijections.zeta_forward, bijections.zeta_inverse, False),
}
MAPS = tuple(_BIJECTIONS)


@dataclass
class VerificationReport:
    """Per-point pass/fail grid for one identity over (r, t, n) ranges."""

    identity: str
    r: int
    n_max: int
    t_values: tuple
    points: list = field(default_factory=list)  # dicts: n, r, t, lhs, rhs, status
    elapsed: float = 0.0

    def record(self, n, t, lhs, rhs):
        status = "pass" if lhs == rhs else "fail"
        self.points.append(
            {"n": n, "r": self.r, "t": t, "lhs": lhs, "rhs": rhs, "status": status})

    @property
    def failures(self):
        return [p for p in self.points if p["status"] == "fail"]

    @property
    def passed(self):
        return not self.failures

    def to_text(self):
        lines = [
            f"verify {self.identity}: r={self.r}, n<= {self.n_max}, "
            f"t in {list(self.t_values) if self.t_values else '-'}: "
            f"{len(self.points) - len(self.failures)}/{len(self.points)} comparisons pass "
            f"({self.elapsed:.2f}s)"
        ]
        for p in self.failures[:20]:
            lines.append(
                f"  FAIL n={p['n']} r={p['r']} t={p['t']}: {p['lhs']} != {p['rhs']}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more failures")
        return "\n".join(lines)

    def to_json(self):
        return json.dumps({
            "identity": self.identity, "r": self.r, "n_max": self.n_max,
            "t_values": list(self.t_values), "passed": self.passed,
            "elapsed": self.elapsed, "points": self.points,
        }, indent=2)

    def to_csv(self):
        lines = ["n,r,t,lhs,rhs,status"]
        for p in self.points:
            t = "" if p["t"] is None else p["t"]
            lines.append(f"{p['n']},{p['r']},{t},{p['lhs']},{p['rhs']},{p['status']}")
        return "\n".join(lines)

    def render(self, fmt):
        return {"text": self.to_text, "json": self.to_json, "csv": self.to_csv}[fmt]()


def _t_range(args, r):
    if args.t is not None:
        return (args.t,)
    return tuple(range(1, r))


def _verify_beck3(args):
    r, n_max = args.r, args.n_max
    report = VerificationReport("beck3", r, n_max, _t_range(args, r))
    for n in range(n_max + 1):
        o1 = families.count(n, Family.O_1R, r)
        for t in report.t_values:
            report.record(n, t, stats.excess_Ert(n, r, t), o1)
        report.record(n, None, o1, families.count(n, Family.D_1R, r))
    return report


def _verify_beck1(args):
    r, n_max = args.r, args.n_max
    report = VerificationReport("beck1", r, n_max, ())
    for n in range(n_max + 1):
        b = stats.beck_b(n, r)
        report.record(n, None, b, (r - 1) * families.count(n, Family.O_1R, r))
        report.record(n, None, b, sum(stats.excess_Ert(n, r, t) for t in range(1, r)))
    return report


def _verify_beck2(args):
    r, n_max = args.r, args.n_max
    report = VerificationReport("beck2", r, n_max, ())
    for n in range(n_max + 1):
        report.record(n, None, stats.beck_b_prime(n, r), families.count(n, Family.T_R, r))
    return report


def _verify_glaisher(args):
    r, n_max = args.r, args.n_max
    report = VerificationReport("glaisher", r, n_max, ())
    for n in range(n_max + 1):
        o = families.count(n, Family.O_R, r)
        d = families.count(n, Family.D_R, r)
        report.record(n, None, o, d)
        report.record(n, None, d, families.count(n, Family.F_R, r))
    return report


def _verify_series(args):
    r = args.r
    bound = args.degree if args.degree is not None else args.n_max
    report = VerificationReport("series", r, bound, _t_range(args, r))
    eta = qseries.gf("O_r", r, bound=bound)
    o1 = qseries.gf("O_1r", r, bound=bound)
    ert = qseries.gf("E_rt", r, bound=bound)
    for n in range(bound + 1):
        report.record(n, None, eta[n], families.count(n, Family.O_R, r))
        report.record(n, None, o1[n], families.count(n, Family.O_1R, r))
    for t in report.t_values:
        parts = qseries.gf("parts_t_in_Or", r, t, bound)
        repeats = qseries.gf("repeats_t_in_Dr", r, t, bound)
        lam_prog = qseries.lambert_sum("progression", r, t, bound)
        lam_mixed = qseries.lambert_sum("mixed", r, t, bound)
        difference = parts - repeats
        for n in range(bound + 1):
            report.record(n, t, parts[n], stats.total_residue_parts(n, r, t))
            report.record(n, t, repeats[n], stats.total_repeated_values(n, r, t))
            report.record(n, t, ert[n], stats.excess_Ert(n, r, t))
            report.record(n, t, lam_prog[n], lam_mixed[n])
            report.record(n, t, difference[n], ert[n])
    return report


_VERIFIERS = {
    "beck3": _verify_beck3,
    "beck1": _verify_beck1,
    "beck2": _verify_beck2,
    "glaisher": _verify_glaisher,
    "series": _verify_series,
}
_TAKES_T = ("beck3", "series")  # the identities checked per residue t


def _render_element(x):
    if isinstance(x, Partition):
        return str(x)
    if isinstance(x, (DecoratedPartition, RectanglePair)):
        return x.text()
    return str(x)


def _element_json(x):
    if isinstance(x, Partition):
        return list(x)
    if isinstance(x, DecoratedPartition):
        return {"parts": list(x.base), "decoration": x.decoration, "position": x.position}
    if isinstance(x, RectanglePair):
        return {"flat": list(x.flat), "part": x.part, "count": x.count}
    return x


def _cmd_enumerate(args, out):
    if (args.family is None) == (args.pairset is None):
        raise ValueError("enumerate needs exactly one of --family / --pairset")
    if args.family is not None:
        stream = families.enumerate_family(args.n, Family(args.family), args.r, args.t)
    else:
        stream = families.enumerate_pairs(args.n, PairSet(args.pairset), args.r, args.t)
    if args.format == "json":
        print(json.dumps([_element_json(x) for x in stream]), file=out)
    else:
        for x in stream:
            print(_render_element(x), file=out)
    return 0


def _check_n_max(args):
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"--n-max must be a non-negative integer, got {args.n_max}")


def _cmd_count(args, out):
    if (args.family is None) == (args.pairset is None):
        raise ValueError("count needs exactly one of --family / --pairset")
    if (args.n is None) == (args.n_max is None):
        raise ValueError("count needs exactly one of --n / --n-max")
    _check_n_max(args)
    ns = [args.n] if args.n_max is None else list(range(args.n_max + 1))
    rows = []
    for n in ns:
        if args.family is not None:
            c = families.count(n, Family(args.family), args.r, args.t)
        else:
            c = families.count_pairs(n, PairSet(args.pairset), args.r, args.t)
        rows.append((n, c))
    if args.format == "json":
        print(json.dumps({str(n): c for n, c in rows}), file=out)
    elif args.format == "csv":
        print("n,count", file=out)
        for n, c in rows:
            print(f"{n},{c}", file=out)
    elif len(rows) == 1:
        print(rows[0][1], file=out)
    else:
        for n, c in rows:
            print(f"{n}\t{c}", file=out)
    return 0


def _decorated_input(args):
    base = parse_partition(args.partition)
    if args.mark_position is not None and args.overline_position is not None:
        raise ValueError("give at most one of --mark-position / --overline-position")
    if args.mark_position is not None:
        return DecoratedPartition(base, MARK, args.mark_position)
    if args.overline_position is not None:
        return DecoratedPartition(base, OVERLINE, args.overline_position)
    return base


def _cmd_bijection(args, out):
    forward, inverse, needs_t = _BIJECTIONS[args.map]
    pair = args.map == "zeta" or args.rect_count is not None
    for flag, unused, reason in (
            ("--trace", args.trace and (args.map != "xi" or args.inverse),
             "only the forward xi map has a trace"),
            ("--t", args.t is not None and not needs_t, f"map {args.map!r} takes no residue"),
            ("--rect-part", args.rect_part is not None and args.rect_count is None,
             "it needs --rect-count"),
            ("--mark-position", pair and args.mark_position is not None, "the input is a pair"),
            ("--overline-position", pair and args.overline_position is not None,
             "the input is a pair")):
        if unused:
            raise ValueError(f"{flag} is not used: {reason}")
    if pair:
        if args.rect_count is None:
            raise ValueError(f"map {args.map!r} takes a pair: add --rect-count (and --rect-part)")
        rect_part = 1 if args.rect_part is None else args.rect_part
        obj = RectanglePair(parse_partition(args.partition), rect_part, args.rect_count)
    else:
        obj = _decorated_input(args)

    apply = inverse if args.inverse else forward
    if not needs_t:
        result = apply(obj, args.r)
    elif args.t is None:
        raise ValueError(f"map {args.map!r} requires --t")
    else:
        result = apply(obj, args.r, args.t)

    if isinstance(result, bijections.XiTrace):
        if args.trace:
            print(json.dumps(result.as_dict(), indent=2), file=out)
            return 0
        result = result.output
    if args.format == "json":
        print(json.dumps(_element_json(result)), file=out)
    else:
        print(_render_element(result), file=out)
    return 0


def _cmd_diagram(args, out):
    print(modular_diagram(parse_partition(args.partition), args.r), file=out)
    return 0


def _cmd_series(args, out):
    series = qseries.gf(args.gf, args.r, args.t, args.degree)
    print(series.dump(), file=out)
    return 0


def _cmd_verify(args, out):
    _check_n_max(args)
    if args.t is not None and args.identity not in _TAKES_T:
        raise ValueError(f"verify {args.identity} does not take --t")
    if args.degree is not None and args.identity != "series":
        raise ValueError(f"verify {args.identity} does not take --degree")
    start = time.perf_counter()
    report = _VERIFIERS[args.identity](args)
    report.elapsed = time.perf_counter() - start
    print(report.render(args.format), file=out)
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beckpart",
        description="Exact verification toolkit for Beck-type partition identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, residue=True):
        p.add_argument("--r", type=int, required=True, help="modulus r >= 2")
        if residue:
            p.add_argument("--t", type=int, default=None, help="residue t in [1, r-1]")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("enumerate", help="list a family or pair set")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--pairset", choices=[s.value for s in PairSet])

    p = sub.add_parser("count", help="count a family or pair set")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--pairset", choices=[s.value for s in PairSet])

    p = sub.add_parser("verify", help="check an identity over a grid and report")
    p.add_argument("identity", choices=IDENTITIES)
    common(p)
    p.add_argument("--n-max", type=int, dest="n_max", default=30)
    p.add_argument("--degree", type=int, default=None, help="series truncation degree")

    p = sub.add_parser("bijection", help="apply one of the constructive maps")
    common(p)
    p.add_argument("--map", choices=MAPS, required=True)
    p.add_argument("--partition", required=True, help="comma-separated parts, ^ exponents allowed")
    p.add_argument("--mark-position", type=int, dest="mark_position")
    p.add_argument("--overline-position", type=int, dest="overline_position")
    p.add_argument("--rect-part", type=int, dest="rect_part", help="default 1")
    p.add_argument("--rect-count", type=int, dest="rect_count")
    p.add_argument("--trace", action="store_true", help="emit the full JSON trace (xi)")
    p.add_argument("--inverse", action="store_true", help="apply the inverse direction")

    p = sub.add_parser("diagram", help="render the r-modular Ferrers diagram")
    common(p, residue=False)
    p.add_argument("--partition", required=True)

    p = sub.add_parser("series", help="dump generating-function coefficients")
    common(p)
    p.add_argument("--gf", choices=qseries.GF_NAMES, required=True)
    p.add_argument("--degree", type=int, required=True)

    return parser


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "bijection": _cmd_bijection,
    "diagram": _cmd_diagram,
    "series": _cmd_series,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except (ValueError, bijections.BijectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
