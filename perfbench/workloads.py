"""The four benchmark workloads: their operations, inputs and checks.

Every workload is a closed loop with one client that runs cycles of the
same distinct operations.  An operation is one call into the package
through a public entry point (``beckpart.cli.main`` or a public function of
``beckpart.bijections``) on an input fixed for the run, so its repetitions
do the same work.  Each takes a few to a few tens of milliseconds.
``run`` is the timed part;
``check`` runs after the timer stops and decides whether the op failed.
Entry points are looked up when called, so a traced run sees the wrapped
functions.  Importing ``beckpart.cli`` loads every layer module.

Import this module only after the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

from beckpart import bijections, cli
from beckpart.partitions import MARK, OVERLINE, DecoratedPartition, Partition, RectanglePair
from beckpart.qseries import GF_NAMES

CENSUS_IDS = ("beck3", "beck1", "beck2", "glaisher", "series")
CENSUS_RS = (2, 3, 4, 5, 6)
CENSUS_N_MAX = 22

# (kind, name, r, t, sizes): every plain family, every decorated family and
# every pair set, each at two sizes n whose listings take about 5 and 10 ms
# on a 2-core x86-64 VM.
LISTING_CASES = (
    ("family", "Or", 3, None, (24, 29)),
    ("family", "Dr", 3, None, (24, 28)),
    ("family", "Fr", 3, None, (23, 27)),
    ("family", "O1r", 3, None, (21, 25)),
    ("family", "D1r", 3, None, (20, 24)),
    ("family", "F1r", 3, None, (21, 25)),
    ("family", "Tr", 3, None, (24, 28)),
    ("family", "Ostar", 3, 1, (18, 22)),
    ("family", "Fbar", 3, 1, (18, 22)),
    ("family", "Obar", 3, None, (20, 24)),
    ("family", "Dbar", 3, None, (19, 23)),
    ("pairset", "Prt", 3, 1, (16, 19)),
    ("pairset", "Ao", 3, None, (17, 21)),
    ("pairset", "Ad", 3, None, (15, 20)),
    ("pairset", "At", 3, None, (23, 27)),
    ("pairset", "A", 3, None, (18, 22)),
    ("pairset", "B", 3, None, (23, 27)),
)
# Run once per run, after the timed loop: the full partition list of 50
# (204,226 members), which the CLI builds whole before printing.
LISTING_MEMORY_CASE = ("family", "all", 2, None, 50)

MAP_RS = (2, 3, 5)
XI_LENGTHS = (25, 50, 100, 200)
DERIVED_LENGTH = 100
DERIVED_MAPS = ("phi", "psi1", "psi2", "psi_o", "psi_d", "psi_t", "zeta")
WITH_T = ("psi1", "psi2")
SLOTS = 12         # inputs per map case; slot 0 is the recorded anchor
ANCHOR_SEED = 0

SERIES_RS = (2, 3, 4, 5, 6)
SERIES_DEGREE = 400

# Percentile reported as op_tail_ms: about the highest that keeps at least
# ten of the workload's distinct ops beyond it (25, 34, 396 and 45 ops).
TAIL_PERCENTILE = {"census": 60.0, "listing": 70.0, "maps": 97.4, "series": 77.0}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cached_callables():
    """Every callable with ``cache_clear`` found in the loaded beckpart modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "beckpart" and not name.startswith("beckpart."):
            continue
        for obj in vars(module).values():
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == name:
                members = [getattr(m, "__func__", m) for m in vars(obj).values()]
            for m in members:
                if callable(getattr(m, "cache_clear", None)):
                    found[id(m)] = m
    return list(found.values())


def clear_caches():
    for fn in cached_callables():
        fn.cache_clear()


class HashSink:
    """Text stream that keeps only the byte count and sha256 of what it receives."""

    CHUNK = 1 << 20

    def __init__(self):
        self.bytes = 0
        self._hash = hashlib.sha256()
        self._buf = []
        self._pending = 0

    def write(self, text):
        self._buf.append(text)
        self._pending += len(text)
        if self._pending > self.CHUNK:
            self._drain()
        return len(text)

    def flush(self):
        pass

    def _drain(self):
        data = "".join(self._buf).encode()
        self.bytes += len(data)
        self._hash.update(data)
        self._buf.clear()
        self._pending = 0

    def hexdigest(self):
        self._drain()
        return self._hash.hexdigest()


def call_cli(argv, sink):
    """Run ``beckpart.cli.main`` with stdout sent to ``sink``; return (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class Op:
    """One distinct operation of a cycle, with its input fixed for the whole run.

    ``key`` names its recorded digest, ``tag`` groups ops in the trace, and
    ``bytes_out`` is what the last checked run wrote to standard output.
    """

    def __init__(self, key, tag=None):
        self.key = key
        self.tag = tag
        self.bytes_out = 0

    def prepare(self):
        """Untimed work before each run."""

    def run(self, cycle):
        raise NotImplementedError

    def check(self, result, cycle):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# census: cold `verify` runs, every cache cleared before each op.
# ---------------------------------------------------------------------------

def _points(text):
    """The points of a CSV verify report: (n, t, lhs, rhs, status) rows."""
    lines = text.splitlines()
    if not lines or lines[0] != "n,r,t,lhs,rhs,status":
        raise ValueError("not a verify CSV report")
    return [(n, t, lhs, rhs, status)
            for n, _, t, lhs, rhs, status in (line.split(",") for line in lines[1:])]


class CensusOp(Op):
    def __init__(self, ident, r, n_max, digests=None):
        super().__init__(f"{ident}/r{r}/n{n_max}")
        self.argv = ["verify", ident, "--r", str(r), "--n-max", str(n_max), "--format", "csv"]
        self.digests = digests

    def prepare(self):
        clear_caches()

    def run(self, cycle):
        sink = io.StringIO()
        code, _ = call_cli(self.argv, sink)
        return code, sink.getvalue()

    def check(self, result, cycle):
        code, text = result
        self.bytes_out = len(text.encode())
        points = _points(text)
        return (code == 0 and points and all(p[4] == "pass" for p in points)
                and self.digests[self.key] == self.digest(result))

    def digest(self, result):
        return sha256(json.dumps([p[:4] for p in _points(result[1])]))


# ---------------------------------------------------------------------------
# listing: `enumerate` into a byte-counting, hashing sink.
# ---------------------------------------------------------------------------

class ListingOp(Op):
    def __init__(self, kind, name, r, t, n, digests=None):
        super().__init__(f"{name}/r{r}/n{n}" + (f"/t{t}" if t else ""))
        self.argv = ["enumerate", f"--{kind}", name, "--r", str(r), "--n", str(n)]
        if t is not None:
            self.argv += ["--t", str(t)]
        self.digests = digests

    def run(self, cycle):
        sink = HashSink()
        code, _ = call_cli(self.argv, sink)
        return code, sink

    def check(self, result, cycle):
        code, sink = result
        digest = sink.hexdigest()
        self.bytes_out = sink.bytes
        return code == 0 and self.digests[self.key] == digest

    def digest(self, result):
        return result[1].hexdigest()


# ---------------------------------------------------------------------------
# maps: forward map then its inverse on seeded inputs.
# ---------------------------------------------------------------------------

def random_flat(rng, r, length):
    """r-flat parts: final part in [1, r-1], every other gap in [0, r-1]."""
    parts = [rng.randint(1, r - 1)]
    for _ in range(length - 1):
        parts.append(parts[-1] + rng.randint(0, r - 1))
    return parts[::-1]


def _conjugate(parts):
    # Columns in (parts[k], parts[k - 1]] hold exactly k parts.
    out = []
    below = 0
    for k in range(len(parts), 0, -1):
        out += [k] * (parts[k - 1] - below)
        below = parts[k - 1]
    return out


def _regular(parts, r):
    # Monotone, so the result is still a partition, and no part is divisible by r.
    return [p + 1 if p % r == 0 else p for p in parts]


def _gap(parts, i):
    return parts[i - 1] - (parts[i] if i < len(parts) else 0)


def _last_occurrence(parts, value):
    return max(i for i, p in enumerate(parts, start=1) if p == value)


def _one_steep(rng, flat, r):
    i = rng.randint(1, len(flat))
    lift = r * rng.randint(1, 2)
    return Partition([p + lift if k < i else p for k, p in enumerate(flat)])


def map_input(rng, name, r, length):
    """One forward-domain input for map ``name``, derived from a random r-flat partition.

    Returns (input, t) with t None for the maps that take no residue.
    """
    t = rng.randint(1, r - 1) if name in WITH_T else None
    while True:
        flat = random_flat(rng, r, length)
        if name == "xi":
            return Partition(flat), t
        if name == "phi":
            return _one_steep(rng, flat, r), t
        if name == "psi1":
            spots = [i for i in range(1, length + 1) if _gap(flat, i) >= t]
            if rng.random() < 0.5 or not spots:
                return _one_steep(rng, flat, r), t
            return DecoratedPartition(Partition(flat), OVERLINE, rng.choice(spots)), t
        if name == "psi2":
            base = _regular(flat, r)
            spots = [i for i, p in enumerate(base, start=1) if p % r == t]
            if spots:
                return DecoratedPartition(Partition(base), MARK, rng.choice(spots)), t
        elif name == "psi_o":
            base = _regular(flat, r)
            return DecoratedPartition(Partition(base), OVERLINE,
                                      _last_occurrence(base, rng.choice(base))), t
        elif name == "psi_d":
            base = _conjugate(flat)
            return DecoratedPartition(Partition(base), OVERLINE,
                                      _last_occurrence(base, rng.choice(base))), t
        elif name == "psi_t":
            base = _conjugate(flat)
            return Partition(sorted(base + [rng.choice(base)] * r, reverse=True)), t
        elif name == "zeta":
            spots = [j for j in range(1, length + 1) if _gap(flat, j) == r - 1]
            if spots:
                return RectanglePair(Partition(flat), 1, rng.choice(spots)), t
        else:
            raise ValueError(f"unknown map {name!r}")


def anchor_input(name, r, length):
    """The seed-independent input of slot 0, whose image digest is recorded."""
    return map_input(random.Random(f"{ANCHOR_SEED}/{name}/r{r}/L{length}"), name, r, length)


class MapOp(Op):
    """Forward map then inverse on one input; ``digests`` is given for the anchor slot only."""

    def __init__(self, name, r, length, x, t, digests=None):
        super().__init__(f"{name}/r{r}/L{length}", tag=f"{name}/L{length}")
        self.name, self.r = name, r
        self.x = x
        self.args = (r,) if t is None else (r, t)
        self.digests = digests

    def run(self, cycle):
        forward = getattr(bijections, f"{self.name}_forward")
        inverse = getattr(bijections, f"{self.name}_inverse")
        image = forward(self.x, *self.args)
        if self.name == "xi":
            image = image.output
        return image, inverse(image, *self.args)

    def check(self, result, cycle):
        image, back = result
        if back != self.x or image.size != self.x.size:
            return False
        return self.digests is None or self.digests[self.key] == self.digest(result)

    def digest(self, result):
        return sha256(str(result[0]))


# ---------------------------------------------------------------------------
# series: `series --degree D` for every named generating function.
# ---------------------------------------------------------------------------

def series_needs_t(name):
    return name in ("parts_t_in_Or", "repeats_t_in_Dr")


def series_key(name, r, t, degree):
    return f"{name}/r{r}/d{degree}" + (f"/t{t}" if series_needs_t(name) else "")


class SeriesOp(Op):
    def __init__(self, name, r, t, degree, digests=None, results=None):
        super().__init__(series_key(name, r, t, degree))
        self.name, self.r, self.t, self.degree = name, r, t, degree
        self.argv = ["series", "--gf", name, "--r", str(r), "--degree", str(degree)]
        if series_needs_t(name):
            self.argv += ["--t", str(t)]
        self.digests = digests
        self.results = results  # shared: (cycle, r, degree) -> {(name, t): coefficients}

    def run(self, cycle):
        sink = io.StringIO()
        code, _ = call_cli(self.argv, sink)
        return code, sink.getvalue()

    def check(self, result, cycle):
        code, text = result
        self.bytes_out = len(text.encode())
        if code != 0 or self.digests[self.key] != sha256(text):
            return False
        # parts_t_in_Or - repeats_t_in_Dr == E_rt for every t, checked by the
        # op that completes its (r, degree) group in a cycle.
        if self.name not in ("parts_t_in_Or", "repeats_t_in_Dr", "E_rt"):
            return True
        group = (cycle, self.r, self.degree)
        seen = self.results.setdefault(group, {})
        seen[self.name, self.t] = [int(line.split("\t")[1]) for line in text.splitlines()]
        if len(seen) < 2 * (self.r - 1) + 1:
            return True
        del self.results[group]
        ert = seen["E_rt", None]
        return all(p - q == e
                   for t in range(1, self.r)
                   for p, q, e in zip(seen["parts_t_in_Or", t], seen["repeats_t_in_Dr", t], ert))

    def digest(self, result):
        return sha256(result[1])


# ---------------------------------------------------------------------------
# Workload assembly.
# ---------------------------------------------------------------------------

class Workload:
    """Distinct ops run once per cycle, warm-up ops, and ops run once after the loop."""

    def __init__(self, name, ops, warmup_ops, final_ops=()):
        self.name = name
        self.ops = ops
        self.warmup_ops = warmup_ops
        self.final_ops = final_ops
        self.tail_percentile = TAIL_PERCENTILE[name]

    def warmup(self):
        """Run each small warm-up op once, untimed; its result is not recorded."""
        for op in self.warmup_ops:
            op.prepare()
            op.run(0)
        clear_caches()


def census_cases():
    return [(i, r, CENSUS_N_MAX) for i in CENSUS_IDS for r in CENSUS_RS]


def census(seed, digests):
    ops = [CensusOp(*case, digests=digests) for case in census_cases()]
    random.Random(seed).shuffle(ops)
    return Workload("census", ops, [CensusOp(i, 2, 6) for i in CENSUS_IDS])


def listing_cases():
    return [(kind, name, r, t, n) for kind, name, r, t, sizes in LISTING_CASES for n in sizes]


def listing(seed, digests):
    ops = [ListingOp(*case, digests=digests) for case in listing_cases()]
    random.Random(seed).shuffle(ops)
    warm = [ListingOp(kind, name, r, t, 6) for kind, name, r, t, _ in LISTING_CASES]
    return Workload("listing", ops, warm, [ListingOp(*LISTING_MEMORY_CASE, digests=digests)])


def map_cases():
    cases = [("xi", r, length) for length in XI_LENGTHS for r in MAP_RS]
    return cases + [(name, r, DERIVED_LENGTH) for name in DERIVED_MAPS for r in MAP_RS]


def maps(seed, digests):
    rng = random.Random(seed)
    ops = []
    for name, r, length in map_cases():
        ops.append(MapOp(name, r, length, *anchor_input(name, r, length), digests=digests))
        ops += [MapOp(name, r, length, *map_input(rng, name, r, length))
                for _ in range(SLOTS - 1)]
    rng.shuffle(ops)
    warm = [MapOp(name, r, 12, *map_input(rng, name, r, 12)) for name, r, _ in map_cases()]
    return Workload("maps", ops, warm)


def series_cases():
    return [(name, r, t, SERIES_DEGREE) for r in SERIES_RS
            for name in GF_NAMES
            for t in (range(1, r) if series_needs_t(name) else (None,))]


def series(seed, digests):
    results = {}
    ops = [SeriesOp(*case, digests=digests, results=results) for case in series_cases()]
    random.Random(seed).shuffle(ops)
    warm = [SeriesOp(name, r, 1 if series_needs_t(name) else None, 30)
            for name in GF_NAMES for r in SERIES_RS]
    return Workload("series", ops, warm)


WORKLOADS = {"census": census, "listing": listing, "maps": maps, "series": series}
