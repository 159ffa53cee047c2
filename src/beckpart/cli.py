"""Command-line front end.

Subcommands: ``enumerate``, ``count``, ``verify``, ``bijection``,
``diagram``, ``series``.  Exit codes: 0 on success or all checks passing,
1 when a verification fails (the report is still emitted) or the reader
closes standard output, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import compress
from operator import ne, sub as minus

from . import bijections, families, qseries, stats
from .families import Family, PairSet
from .partitions import (
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    _check_size,
    modular_diagram,
    parse_partition,
)

# map -> (forward, inverse); "xi-inv" is xi_inverse in both directions
_BIJECTIONS = {
    "xi": (bijections.xi_forward, bijections.xi_inverse),
    "xi-inv": (bijections.xi_inverse, bijections.xi_inverse),
    "phi": (bijections.phi_forward, bijections.phi_inverse),
    "psi1": (bijections.psi1_forward, bijections.psi1_inverse),
    "psi2": (bijections.psi2_forward, bijections.psi2_inverse),
    "psi-o": (bijections.psi_o_forward, bijections.psi_o_inverse),
    "psi-d": (bijections.psi_d_forward, bijections.psi_d_inverse),
    "psi-t": (bijections.psi_t_forward, bijections.psi_t_inverse),
    "zeta": (bijections.zeta_forward, bijections.zeta_inverse),
}
MAPS = tuple(_BIJECTIONS)

_DEFAULT_N_MAX = 30  # verify's --n-max when neither it nor --degree is given
# The most columns one verify report reads, and the most values: its columns
# times n_max + 1.  A column costs about 9 us and 300 bytes past its values.
COLUMN_LIMIT = 200_000
VALUE_LIMIT = 4_000_000


@dataclass
class VerificationReport:
    """Pass/fail grid for one identity over (r, t, n) ranges, kept as columns."""

    identity: str
    r: int
    n_max: int
    t_values: tuple | range
    # lists of (t, lhs, rhs), lhs and rhs a check's columns at n = 0..n_max;
    # the points run block by block, and within a block for n, for each entry
    blocks: list = field(default_factory=list)
    elapsed: float = 0.0

    def points(self):
        """Every (n, t, lhs, rhs) in report order."""
        for block in self.blocks:
            for n in range(self.n_max + 1):
                for t, lhs, rhs in block:
                    yield n, t, lhs[n], rhs[n]

    def failures(self):
        """The failing (n, t, lhs, rhs), a column at a time."""
        return ((n, t, lhs[n], rhs[n]) for block in self.blocks for t, lhs, rhs in block
                for n in compress(range(self.n_max + 1), map(ne, lhs, rhs)))

    @property
    def passed(self):
        return next(self.failures(), None) is None

    def _total(self):
        return sum(map(len, self.blocks)) * (self.n_max + 1)

    def text_lines(self):
        """The summary, then the first 20 failures by (n, t), t-free checks
        first: the smallest failing point leads."""
        total = self._total()
        failed = sum(1 for _ in self.failures())
        yield (f"verify {self.identity}: r={self.r}, n<= {self.n_max}, "
               f"t in {list(self.t_values) if self.t_values else '-'}: "
               f"{total - failed}/{total} comparisons pass ({self.elapsed:.2f}s)")
        for n, t, lhs, rhs in nsmallest(20, self.failures(), key=lambda p: (p[0], p[1] or 0)):
            yield f"  FAIL n={n} r={self.r} t={t}: {lhs} != {rhs}"
        if failed > 20:
            yield f"  ... and {failed - 20} more failures"

    def json_lines(self):
        """The lines of json.dumps(report, indent=2), a point at a time: the
        head, each point as its own indent=2 dump reads, indented four spaces,
        the close."""
        total = self._total()
        head = json.dumps({
            "identity": self.identity, "r": self.r, "n_max": self.n_max,
            "t_values": list(self.t_values), "passed": self.passed, "elapsed": self.elapsed,
        }, indent=2)
        yield head[:-2] + ',\n  "points": ['  # head ends "\n}"; every report has a point
        for i, (n, t, lhs, rhs) in enumerate(self.points(), 1):
            yield (f'    {{\n      "n": {n},\n      "r": {self.r},\n'
                   f'      "t": {"null" if t is None else t},\n'
                   f'      "lhs": {lhs},\n      "rhs": {rhs},\n'
                   f'      "status": "{_status(lhs, rhs)}"\n    }}' + ("," if i < total else ""))
        yield "  ]\n}"

    def csv_lines(self):
        """The csv header, then one line per point in report order."""
        yield "n,r,t,lhs,rhs,status"
        for n, t, lhs, rhs in self.points():
            yield f"{n},{self.r},{'' if t is None else t},{lhs},{rhs},{_status(lhs, rhs)}"


def _status(lhs, rhs):
    return "pass" if lhs == rhs else "fail"


# A side is a column: a function of (n_max, r, t) giving its values at
# n = 0..n_max, which looks up its module function when called, so a patched
# module attribute is seen; a tuple (op, a, b) is op of sides a and b, value
# by value; a tuple (sum, a) is the sum of side a over t = 1..r-1, value by
# value.  t is None in a check that does not run per t.
def _count(family):
    return lambda n_max, r, t: families.counts(n_max, family, r)


def _stats(name):
    return lambda n_max, r, t: stats.column(name, n_max, r, t)


def _gf(name):
    return lambda n_max, r, t: qseries.gf(name, r, t, n_max).coeffs


def _lambert(family):
    return lambda n_max, r, t: qseries.lambert_sum(family, r, t, n_max).coeffs


_PARTS, _REPEATS, _ERT = _gf("parts_t_in_Or"), _gf("repeats_t_in_Dr"), _gf("E_rt")

# identity -> (its route, then its checks in report order, each (per t, lhs,
# rhs)).  The count route's points run for n, for each check, for each t if
# the check is per t (else t = None).  The series route's points run
# t-outer: the t-free checks for every n, then for each t its checks for
# every n.  Only the series route takes --degree.
_IDENTITIES = {
    "beck3": ("count", (True, _stats("excess_Ert"), _count(Family.O_1R)),
              (False, _count(Family.O_1R), _count(Family.D_1R))),
    "beck1": ("count", (False, _stats("beck_b"), lambda n_max, r, t: [
                  (r - 1) * c for c in families.counts(n_max, Family.O_1R, r)]),
              (False, _stats("beck_b"), (sum, _stats("excess_Ert")))),
    "beck2": ("count", (False, _stats("beck_b_prime"), _count(Family.T_R)),),
    "glaisher": ("count", (False, _count(Family.O_R), _count(Family.D_R)),
                 (False, _count(Family.D_R), _count(Family.F_R))),
    "series": ("series", (False, _gf("O_r"), _count(Family.O_R)),
               (False, _gf("O_1r"), _count(Family.O_1R)),
               (True, _PARTS, _stats("total_residue_parts")),
               (True, _REPEATS, _stats("total_repeated_values")),
               (True, _ERT, _stats("excess_Ert")),
               (True, _lambert("progression"), _lambert("mixed")),
               (True, (minus, _PARTS, _REPEATS), _ERT)),
}


def _columns(side, r):
    # the columns a side reads at one t
    if callable(side):
        return 1
    if side[0] is sum:
        return (r - 1) * _columns(side[1], r)
    return _columns(side[1], r) + _columns(side[2], r)


def _check(report):
    # each side's column at each t, worked out once per report, after the
    # report's size is checked against the limits
    route, *checks = _IDENTITIES[report.identity]
    r, n_max = report.r, report.n_max
    columns = sum((len(report.t_values) if per_t else 1) * (_columns(lhs, r) + _columns(rhs, r))
                  for per_t, lhs, rhs in checks)
    if columns > COLUMN_LIMIT or columns * (n_max + 1) > VALUE_LIMIT:
        raise ValueError(f"verify {report.identity} at n <= {n_max} is too large at r = {r}: "
                         f"{columns} columns and {columns * (n_max + 1)} values, "
                         f"past {COLUMN_LIMIT} columns or {VALUE_LIMIT} values")
    memo = {}

    def column(side, t):
        if (side, t) not in memo:
            if callable(side):
                values = side(n_max, r, t)
            elif side[0] is sum:
                values = list(map(sum, zip(*(column(side[1], u) for u in range(1, r)))))
            else:
                values = list(map(side[0], column(side[1], t), column(side[2], t)))
            if len(values) != n_max + 1:  # a short column would pass unchecked
                raise ValueError(f"a side of verify {report.identity} gave {len(values)} "
                                 f"values for n = 0..{n_max}")
            memo[side, t] = values
        return memo[side, t]

    runs = [(t, column(lhs, t), column(rhs, t)) for per_t, lhs, rhs in checks
            for t in (report.t_values if per_t else (None,))]
    if route == "series":  # one block per t, in first-seen order: the t-free checks first
        by_t = {}
        for run in runs:
            by_t.setdefault(run[0], []).append(run)
        report.blocks = list(by_t.values())
    else:
        report.blocks = [runs]


def _element_json(x):
    if isinstance(x, Partition):
        return list(x)
    if isinstance(x, DecoratedPartition):
        return {"parts": list(x.base), "decoration": x.decoration, "position": x.position}
    if isinstance(x, RectanglePair):
        return {"flat": list(x.flat), "part": x.part, "count": x.count}
    return x


_BLOCK = 1024  # items per write: members of enumerate, lines of verify


def _blocks(stream):
    # The items in lists of _BLOCK.  When the stream raises, the items
    # listed before it are yielded first, so they still reach the output; a
    # block whose write failed is never yielded again.
    block = []
    try:
        for x in stream:
            block.append(x)
            if len(block) == _BLOCK:
                yield block
                block = []
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block


def _tag(args):
    # the one family or pair set that enumerate or count names
    if (args.family is None) == (args.pairset is None):
        raise ValueError(f"{args.command} needs exactly one of --family / --pairset")
    return args.family or args.pairset


def _cmd_enumerate(args, out):
    stream = families.enumerate_family(args.n, _tag(args), args.r, args.t)
    if args.format == "json":
        # the bytes of json.dumps of the whole list, written a block at a
        # time; the first block is read before "[" is written, so a request
        # that fails validation writes nothing
        joined = (", ".join(map(json.dumps, map(_element_json, block)))
                  for block in _blocks(stream))
        out.write("[" + next(joined, ""))
        for text in joined:
            out.write(", " + text)
        out.write("]\n")
    else:
        for block in _blocks(stream):
            out.write("\n".join(map(str, block)) + "\n")
    return 0


def _check_n_max(args):
    if args.n_max is not None and args.n_max < 0:
        raise ValueError(f"--n-max must be a non-negative integer, got {args.n_max}")


def _cmd_count(args, out):
    tag = _tag(args)
    if (args.n is None) == (args.n_max is None):
        raise ValueError("count needs exactly one of --n / --n-max")
    _check_n_max(args)

    rows = ([(args.n, families.count(args.n, tag, args.r, args.t))] if args.n_max is None
            else list(enumerate(families.counts(args.n_max, tag, args.r, args.t))))
    if args.format == "json":
        print(json.dumps({str(n): c for n, c in rows}), file=out)
    elif args.format == "csv":
        print("n,count", file=out)
        for n, c in rows:
            print(f"{n},{c}", file=out)
    elif args.n_max is None:
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
    chosen = _BIJECTIONS[args.map][args.inverse]  # the inverse when --inverse is given
    # t and the kind of input come from the direction's declaration
    pair = any(isinstance(s, PairSet) for s in chosen.domain)
    direction = f"map {args.map!r} " + ("--inverse" if args.inverse else "(forward)")
    takes = f"{direction} takes {'a' if pair else 'no'} pair"
    for flag, unused, reason in (
            ("--trace", args.trace and (args.map != "xi" or args.inverse),
             "only the forward xi map has a trace"),
            ("--t", args.t is not None and not chosen.takes_t,
             f"map {args.map!r} takes no residue"),
            ("--rect-count", args.rect_count is not None and not pair, takes),
            ("--rect-part", args.rect_part is not None and not pair, takes),
            ("--mark-position", pair and args.mark_position is not None, takes),
            ("--overline-position", pair and args.overline_position is not None, takes)):
        if unused:
            raise ValueError(f"{flag} is not used: {reason}")
    if pair:
        if args.rect_count is None:
            raise ValueError(f"{takes}: add --rect-count (and --rect-part)")
        rect_part = 1 if args.rect_part is None else args.rect_part
        obj = RectanglePair(parse_partition(args.partition), rect_part, args.rect_count)
        _check_size(obj.size, "pair")
    else:
        obj = _decorated_input(args)

    if chosen.takes_t and args.t is None:
        raise ValueError(f"map {args.map!r} requires --t")
    result = chosen(obj, args.r, args.t)

    if isinstance(result, bijections.XiTrace):
        if args.trace:
            print(json.dumps(result.as_dict(), indent=2), file=out)
            return 0
        result = result.output
    if args.format == "json":
        print(json.dumps(_element_json(result)), file=out)
    else:
        print(result, file=out)
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
    route, *checks = _IDENTITIES[args.identity]
    takes_t = any(per_t for per_t, _, _ in checks)
    if args.t is not None and not takes_t:
        raise ValueError(f"verify {args.identity} does not take --t")
    if args.degree is not None and route != "series":
        raise ValueError(f"verify {args.identity} does not take --degree")
    if args.degree is not None and args.n_max is not None:
        raise ValueError("--n-max is not used: --degree sets the bound of verify series")
    t_values = (args.t,) if args.t is not None else range(1, args.r) if takes_t else ()
    n_max = args.degree if args.degree is not None else (
        _DEFAULT_N_MAX if args.n_max is None else args.n_max)
    report = VerificationReport(args.identity, args.r, n_max, t_values)
    start = time.perf_counter()
    _check(report)
    report.elapsed = time.perf_counter() - start
    lines = {"text": report.text_lines, "json": report.json_lines, "csv": report.csv_lines}
    for block in _blocks(lines[args.format]()):  # a block of lines at a time
        out.write("\n".join(block) + "\n")
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beckpart",
        description="Exact verification toolkit for Beck-type partition identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, residue=True):
        # formats: the --format values the subcommand honours
        p.add_argument("--r", type=int, required=True, help="modulus r >= 2")
        if residue:
            p.add_argument("--t", type=int, default=None, help="residue t in [1, r-1]")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("enumerate", help="list a family or pair set")
    common(p, ("text", "json"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--pairset", choices=[s.value for s in PairSet])

    p = sub.add_parser("count", help="count a family or pair set")
    common(p, ("text", "json", "csv"))
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--family", choices=[f.value for f in Family])
    p.add_argument("--pairset", choices=[s.value for s in PairSet])

    p = sub.add_parser("verify", help="check an identity over a grid and report")
    p.add_argument("identity", choices=tuple(_IDENTITIES))
    common(p, ("text", "json", "csv"))
    p.add_argument("--n-max", type=int, dest="n_max", default=None,
                   help=f"largest n checked (default {_DEFAULT_N_MAX})")
    p.add_argument("--degree", type=int, default=None, help="series truncation degree")

    p = sub.add_parser("bijection", help="apply one of the constructive maps")
    common(p, ("text", "json"))
    p.add_argument("--map", choices=MAPS, required=True)
    p.add_argument("--partition", required=True, help="comma-separated parts, ^ exponents allowed")
    p.add_argument("--mark-position", type=int, dest="mark_position")
    p.add_argument("--overline-position", type=int, dest="overline_position")
    p.add_argument("--rect-part", type=int, dest="rect_part", help="default 1")
    p.add_argument("--rect-count", type=int, dest="rect_count")
    p.add_argument("--trace", action="store_true", help="emit the full JSON trace (xi)")
    p.add_argument("--inverse", action="store_true", help="apply the inverse direction")

    p = sub.add_parser("diagram", help="render the r-modular Ferrers diagram")
    common(p, ("text",), residue=False)
    p.add_argument("--partition", required=True)

    p = sub.add_parser("series", help="dump generating-function coefficients")
    common(p, ("text",))
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


def _quiet_stdout():
    # Point stdout at os.devnull when it has a file descriptor, so the flush
    # at interpreter exit does not fail again on a closed pipe (the SIGPIPE
    # note of the Python signal module docs).
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


_parser = None  # built by the first main call and reused: a constant, not a memo


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        code = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except (ValueError, bijections.BijectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        _quiet_stdout()
        return 1
