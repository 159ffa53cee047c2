"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beckpart import Partition, cli, families, parse_partition, partitions, qseries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_elapsed(out):
    # verify's elapsed time, in text and in json, is the one output that varies
    out = re.sub(r"\(\d+\.\d\ds\)$", "(-s)", out, flags=re.M)
    return re.sub(r'"elapsed": [^,\n]+', '"elapsed": 0', out)


class TestBijectionCommand:
    def test_xi_trace_fixture(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "xi", "--r", "5",
            "--partition", "22,19,15,15,13,10,6,5,2", "--trace")
        assert code == 0
        trace = json.loads(out)
        assert trace["output"] == [32, 24, 23, 16, 12]
        assert trace["sigma"] == [5, 5, 3, 1]

    def test_xi_inverse(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "xi-inv", "--r", "5",
            "--partition", "32,24,23,16,12")
        assert code == 0
        assert out.strip() == "22,19,15,15,13,10,6,5,2"

    def test_phi(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "phi", "--r", "5",
            "--partition", "27,24,20,15,13,10,6,5,2")
        assert code == 0
        assert out.strip() == "32,24,23,16,12,5,5,5"

    def test_psi2_with_mark(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "psi2", "--r", "5", "--t", "2",
            "--partition", "32,24,23,16,12,7,7", "--mark-position", "7")
        assert code == 0
        assert out.strip() == "((22,19,15,15,13,10,6,5,2), (7^2))"

    def test_psi_o_with_overline_json(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "psi-o", "--r", "5",
            "--partition", "32,24,23,16,16,12", "--overline-position", "5",
            "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "flat": [22, 19, 15, 15, 13, 10, 6, 5, 2], "part": 1, "count": 16}

    def test_zeta_pair_input(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "zeta", "--r", "3",
            "--partition", "2", "--rect-count", "1")
        assert code == 0
        assert out.strip() == "((), (1^3))"

    def test_inverse_flag(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "phi", "--inverse", "--r", "5",
            "--partition", "32,24,23,16,12,5,5,5")
        assert code == 0
        assert out.strip() == "27,24,20,15,13,10,6,5,2"

    def test_malformed_partition_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "bijection", "--map", "xi", "--r", "5", "--partition", "3,oops")
        assert code == 2 and "oops" in err

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "bijection", "--map", "xi", "--r", "3", "--partition", "7,1")
        assert code == 2 and "flat" in err

    # an input outside the domain is named once in parentheses; a pair's text
    # brings its own
    @pytest.mark.parametrize("argv, err", [
        ("bijection --map psi-t --r 2 --partition 1,1 --inverse --rect-count 1",
         "error: ((1,1), (1^1)) is not in At at r = 2\n"),
        ("bijection --map phi --r 5 --partition 1,1", "error: (1,1) is not in F1r at r = 5\n"),
        ("bijection --map psi2 --r 5 --t 2 --partition 3,1 --mark-position 1",
         "error: (3*,1) is not in Ostar at r = 5, t = 2\n"),
        # xi names its domain with an article that reads right at every r
        ("bijection --map xi --r 3 --partition 5,5,4",
         "error: xi_forward needs an r-flat partition at r = 3, got (5,5,4)\n"),
        ("bijection --map xi-inv --r 2 --partition 4,1",
         "error: xi_inverse needs an r-regular partition at r = 2, got (4,1)\n"),
        ("bijection --map xi --inverse --r 8 --partition 16,3",
         "error: xi_inverse needs an r-regular partition at r = 8, got (16,3)\n"),
        # a direction whose domain is a pair set asks for the pair, and a
        # pair flag on any other direction names the direction that takes none
        ("bijection --map psi-o --inverse --r 3 --partition 2,1",
         "error: map 'psi-o' --inverse takes a pair: add --rect-count (and --rect-part)\n"),
        ("bijection --map zeta --inverse --r 3 --partition 2,1",
         "error: map 'zeta' --inverse takes a pair: add --rect-count (and --rect-part)\n"),
        ("bijection --map psi-o --r 3 --partition 2,1 --rect-count 2",
         "error: --rect-count is not used: map 'psi-o' (forward) takes no pair\n"),
        ("bijection --map phi --r 3 --partition 5,1 --rect-part 2",
         "error: --rect-part is not used: map 'phi' (forward) takes no pair\n"),
    ])
    def test_input_outside_the_domain_is_named(self, capsys, argv, err):
        assert run(capsys, *argv.split()) == (2, "", err)

    # A flag the call would ignore exits 2 and names the flag.
    IGNORED_FLAGS = [
        ("--trace", "bijection --map phi --r 5 --partition 27,24,20,15,13,10,6,5,2 --trace"),
        ("--trace", "bijection --map xi --inverse --r 5 --partition 32,24,23,16,12 --trace"),
        ("--trace", "bijection --map xi-inv --r 5 --partition 32,24,23,16,12 --trace"),
        ("--t", "bijection --map psi-o --r 5 --t 1 --partition 32,24,23,16,16,12"
                " --overline-position 5"),
        ("--mark-position", "bijection --map zeta --r 3 --partition 2 --rect-count 1"
                            " --mark-position 1"),
        ("--overline-position", "bijection --map zeta --r 3 --partition 2 --rect-count 1"
                                " --overline-position 1"),
        ("--rect-part", "bijection --map psi-o --r 5 --partition 32,24,23,16,16,12"
                        " --overline-position 5 --rect-part 2"),
        ("--rect-count", "bijection --map psi-o --r 3 --partition 2,1 --rect-count 2"),
        ("--t", "diagram --r 4 --partition 10,7 --t 1"),
        ("--n-max", "verify series --r 3 --n-max 5 --degree 7"),
    ]

    @pytest.mark.parametrize("flag, argv", IGNORED_FLAGS)
    def test_ignored_flag_is_usage_error(self, capsys, flag, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "" and flag in err

    def test_rect_part_with_rect_count(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "--map", "psi1", "--inverse", "--r", "3", "--t", "2",
            "--partition", "3,2,1", "--rect-part", "2", "--rect-count", "1")
        assert code == 0 and out.strip() == "5,2,1"


class TestFormats:
    # the --format values each subcommand honours; any other exits 2
    FORMATS = [
        ("verify beck2 --r 2 --n-max 2", ("text", "json", "csv")),
        ("count --family Or --r 2 --n 3", ("text", "json", "csv")),
        ("enumerate --family Or --r 2 --n 5", ("text", "json")),
        ("bijection --map phi --r 5 --partition 27,24,20,15,13,10,6,5,2", ("text", "json")),
        ("diagram --r 4 --partition 10,7", ("text",)),
        ("series --gf O_r --r 3 --degree 3", ("text",)),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("argv, honoured", FORMATS)
    def test_format_per_subcommand(self, capsys, argv, honoured, fmt):
        code, out, err = run(capsys, *argv.split(), "--format", fmt)
        if fmt in honoured:
            assert code == 0 and out
        else:
            assert code == 2 and out == "" and "--format" in err


class TestCountAndEnumerate:
    def test_count_fixture(self, capsys):
        code, out, _ = run(capsys, "count", "--family", "O1r", "--r", "2", "--n", "5")
        assert code == 0 and out.strip() == "4"

    def test_count_range(self, capsys):
        code, out, _ = run(
            capsys, "count", "--family", "Or", "--r", "2", "--n-max", "5")
        assert code == 0
        assert [line.split("\t") for line in out.strip().splitlines()] == [
            ["0", "1"], ["1", "1"], ["2", "1"], ["3", "2"], ["4", "2"], ["5", "3"]]

    @pytest.mark.parametrize("fmt, expected", [
        ("text", "0\t1\n"), ("json", '{"0": 1}\n'), ("csv", "n,count\n0,1\n")])
    def test_count_range_of_one_size_keeps_the_range_layout(self, capsys, fmt, expected):
        code, out, _ = run(capsys, "count", "--family", "Or", "--r", "2", "--n-max", "0",
                           "--format", fmt)
        assert code == 0 and out == expected

    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "Or", "--r", "2", "--n", "5")
        assert code == 0
        assert out.strip().splitlines() == ["5", "3,1,1", "1,1,1,1,1"]

    def test_enumerate_decorated_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "Fbar", "--r", "3", "--t", "2",
            "--n", "4", "--format", "json")
        assert code == 0
        items = json.loads(out)
        assert items == [
            {"parts": [3, 1], "decoration": "overline", "position": 1},
            {"parts": [2, 2], "decoration": "overline", "position": 2},
        ]

    def test_enumerate_pairs(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--pairset", "Prt", "--r", "3", "--t", "2", "--n", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert "((2,1,1), (2^2))" in lines and "((3,2,1), (2^1))" in lines

    def test_enumerate_streams_text(self, capsys, monkeypatch):
        # members reach stdout as they are produced, before the stream fails
        def failing(*args):
            yield Partition((5,))
            raise ValueError("stream broke")

        monkeypatch.setattr(cli.families, "enumerate_family", failing)
        code, out, err = run(capsys, "enumerate", "--family", "Or", "--r", "2", "--n", "5")
        assert code == 2
        assert out.splitlines() == ["5"] and "stream broke" in err

    def test_family_and_pairset_conflict(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "Or", "--pairset", "A", "--r", "2", "--n", "4")
        assert code == 2

    def test_t_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "count", "--family", "Ostar", "--r", "3", "--t", "3", "--n", "5")
        assert code == 2 and "t" in err


def enumerate_grid(rs, n_max):
    """enumerate argv for every family and pair set at each r, n <= n_max and every t."""
    for r in rs:
        for kind, tags in (("family", families.Family), ("pairset", families.PairSet)):
            for tag in tags:
                for t in range(1, r) if tag in families._NEEDS_T else (None,):
                    for n in range(n_max + 1):
                        argv = ["enumerate", f"--{kind}", tag.value, "--r", str(r), "--n", str(n)]
                        yield argv + ([] if t is None else ["--t", str(t)])


def enumerate_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def listed(argv):
    """The members enumerate lists for argv, straight from the families module."""
    flags = dict(zip(argv[1::2], argv[2::2]))  # enumerate_grid's argv: flag, value, ...
    tag, t = flags.get("--family") or flags["--pairset"], flags.get("--t")
    return list(families.enumerate_family(int(flags["--n"]), tag, int(flags["--r"]),
                                          None if t is None else int(t)))


class TestEnumerateOutput:
    # sha256 over the grid below of each argv and its output, recorded from
    # the one print per text member and the json.dumps of the whole list
    # that the block writes replaced
    DIGESTS = {
        "text": "8328cde252a747c7eab06839bf4b157e32f1c4eeb75ae741d9a910123669f75d",
        "json": "0e9c33e51d554b19720e10c85aba8f76ad275a3616c827e388c8ba1c3e460c6a",
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_digest(self, fmt):
        h = hashlib.sha256()
        for argv in enumerate_grid(range(2, 6), 16):
            h.update(" ".join(argv).encode() + b"\0"
                     + enumerate_output(argv + ["--format", fmt]).encode())
        assert h.hexdigest() == self.DIGESTS[fmt]

    @pytest.mark.parametrize("block", [cli._BLOCK, 3])
    def test_blocks_write_the_bytes_of_the_whole_list(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK", block)
        for argv in enumerate_grid((3,), 10):
            members = listed(argv)
            assert enumerate_output(argv) == "".join(f"{x}\n" for x in members)
            assert enumerate_output(argv + ["--format", "json"]) == \
                json.dumps([cli._element_json(x) for x in members]) + "\n", argv

    def test_empty_stream(self, capsys):
        for fmt, empty in (("text", ""), ("json", "[]\n")):
            code, out, _ = run(capsys, "enumerate", "--pairset", "A", "--r", "3", "--n", "0",
                               "--format", fmt)
            assert (code, out) == (0, empty)

    def test_json_request_failing_validation_writes_nothing(self, capsys):
        code, out, err = run(capsys, "enumerate", "--family", "Ostar", "--r", "3", "--n", "5",
                             "--format", "json")
        assert (code, out) == (2, "") and "requires the residue t" in err

    @pytest.mark.parametrize("fmt, head", [("text", b"60\n"), ("json", b"[[60], ")])
    def test_closed_stdout_exits_1_quietly(self, fmt, head):
        # the reader takes the first bytes and closes the pipe, as `| head -1` does
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = ["enumerate", "--family", "all", "--r", "2", "--n", "60", "--format", fmt]
        proc = subprocess.Popen([sys.executable, "-m", "beckpart", *argv], cwd=root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


class TestDiagramAndSeries:
    def test_diagram_fixture(self, capsys):
        code, out, _ = run(capsys, "diagram", "--r", "4", "--partition", "10,7,7,5,4,3")
        assert code == 0
        assert out.splitlines() == ["4 4 2", "4 3", "4 3", "4 1", "4", "3"]

    def test_series_dump(self, capsys):
        code, out, _ = run(
            capsys, "series", "--gf", "O_r", "--r", "2", "--degree", "5")
        assert code == 0
        assert out.strip().splitlines() == ["0\t1", "1\t1", "2\t1", "3\t2", "4\t2", "5\t3"]

    def test_negative_degree_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--gf", "O_r", "--r", "3", "--degree", "-1")
        assert code == 2 and "degree" in err
        code, _, err = run(capsys, "verify", "series", "--r", "3", "--degree", "-1")
        assert code == 2 and "degree" in err

    def test_series_t_only_where_it_has_meaning(self, capsys):
        for name in ("O_r", "O_1r"):
            code, out, err = run(
                capsys, "series", "--gf", name, "--r", "3", "--t", "2", "--degree", "5")
            assert code == 2 and out == "" and "residue t" in err, name
        code, out, _ = run(capsys, "series", "--gf", "E_rt", "--r", "3", "--t", "2",
                           "--degree", "5")
        assert code == 0
        assert run(capsys, "series", "--gf", "E_rt", "--r", "3", "--degree", "5")[1] == out

    def test_series_ert_needs_degree(self, capsys):
        code, _, _ = run(capsys, "series", "--gf", "E_rt", "--r", "3")
        assert code == 2


class TestVerify:
    def test_trivial_grid_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "beck3", "--r", "3", "--t", "2", "--n-max", "0")
        assert code == 0 and "pass" in out

    def test_small_grids_all_identities(self, capsys):
        for identity in ("beck3", "beck1", "beck2", "glaisher"):
            code, out, _ = run(capsys, "verify", identity, "--r", "3", "--n-max", "12")
            assert code == 0, (identity, out)

    def test_series_verify(self, capsys):
        code, out, _ = run(
            capsys, "verify", "series", "--r", "2", "--n-max", "12")
        assert code == 0

    def test_series_at_a_wide_modulus_groups_its_runs_in_one_pass(self, capsys):
        # 2 + 5 (r - 1) runs, each placed in its t's block once, not once per t
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", "series", "--r", "10000", "--n-max", "5")
        assert time.perf_counter() - start < 3
        assert code == 0 and " 299982/299982 " in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "beck2", "--r", "2", "--n-max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,r,t,lhs,rhs,status"
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "glaisher", "--r", "2", "--n-max", "6",
            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["identity"] == "glaisher"

    def test_failure_exits_one(self, capsys, monkeypatch):
        # force a wrong value through to exercise the failure path
        monkeypatch.setattr(cli.stats, "column", lambda name, n_max, r, t=None: [-1] * (n_max + 1))
        code, out, _ = run(capsys, "verify", "beck2", "--r", "2", "--n-max", "2")
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("identity, ts", [("beck2", {None}), ("beck3", {None, 1, 2})])
    def test_failing_json_is_its_own_indent_2_dump(self, capsys, monkeypatch, identity, ts):
        # the points are written by hand: they must read exactly as json.dumps writes them
        monkeypatch.setattr(cli.stats, "column", lambda name, n_max, r, t=None: [-1] * (n_max + 1))
        code, out, _ = run(capsys, "verify", identity, "--r", "3", "--n-max", "3",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 1 and out == json.dumps(payload, indent=2) + "\n"
        assert {p["status"] for p in payload["points"]} >= {"fail"}
        assert {p["t"] for p in payload["points"]} == ts

    def test_short_column_is_a_usage_error(self, capsys, monkeypatch):
        # a side with too few values must not pass by comparing fewer points
        monkeypatch.setattr(cli.stats, "column", lambda name, n_max, r, t=None: [0] * n_max)
        code, out, err = run(capsys, "verify", "beck2", "--r", "2", "--n-max", "4")
        assert (code, out) == (2, "") and "gave 4 values for n = 0..4" in err

    @staticmethod
    def first_failure(out):
        fails = [line.split() for line in out.splitlines() if line.startswith("  FAIL")]
        return fails[0][1:4] if fails else None

    def test_count_route_names_the_smallest_failure_first(self, capsys, monkeypatch):
        # the O1r count off by one at n = 9, which fails both checks at every
        # t, and the D1r count at n = 6, which fails the t-free check only
        counts = families.counts

        def faulty(n_max, tag, r=None, t=None):
            column = counts(n_max, tag, r, t)
            wrong = {families.Family.O_1R: (9,), families.Family.D_1R: (6,)}.get(tag, ())
            return [c + (n in wrong) for n, c in enumerate(column)]

        monkeypatch.setattr(cli.families, "counts", faulty)
        code, out, _ = run(capsys, "verify", "beck3", "--r", "4", "--n-max", "12")
        assert code == 1
        assert self.first_failure(out) == ["n=6", "r=4", "t=None:"]

    def test_series_route_names_the_smallest_failure_first(self, capsys, monkeypatch):
        # the mixed Lambert sum off by one at n = 9 for t = 1 and n = 4 for
        # t = 3: the report's points run t-outer, so n = 9 comes first there
        lambert_sum = qseries.lambert_sum

        def faulty(family, r, t=None, bound=0):
            series = lambert_sum(family, r, t, bound)
            wrong = {1: 9, 3: 4}.get(t) if family == "mixed" else None
            if wrong is None or wrong > bound:
                return series
            return series + qseries.TruncatedSeries(bound, [0] * wrong + [1])

        monkeypatch.setattr(cli.qseries, "lambert_sum", faulty)
        code, out, _ = run(capsys, "verify", "series", "--r", "4", "--n-max", "12")
        assert code == 1 and out.count("FAIL") == 2
        assert self.first_failure(out) == ["n=4", "r=4", "t=3:"]
        _, csv_out, _ = run(capsys, "verify", "series", "--r", "4", "--n-max", "12",
                            "--format", "csv")
        fails = [line for line in csv_out.splitlines() if line.endswith(",fail")]
        assert [line.split(",")[:3] for line in fails] == [["9", "4", "1"], ["4", "4", "3"]]

    def test_negative_n_max_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "beck3", "--r", "3", "--n-max", "-1")
        assert code == 2 and out == "" and "n-max" in err
        code, out, err = run(capsys, "count", "--family", "Or", "--r", "3", "--n-max", "-1")
        assert code == 2 and out == "" and "n-max" in err

    def test_count_rejects_both_sizes(self, capsys):
        code, out, err = run(
            capsys, "count", "--family", "Or", "--r", "3", "--n", "5", "--n-max", "3")
        assert code == 2 and out == "" and "--n-max" in err

    def test_verify_rejects_t_where_unused(self, capsys):
        for identity in ("beck1", "beck2", "glaisher"):
            code, out, err = run(capsys, "verify", identity, "--r", "3", "--t", "1", "--n-max", "4")
            assert code == 2 and out == "" and "--t" in err, identity

    def test_verify_rejects_degree_outside_series(self, capsys):
        for identity in ("beck3", "beck1", "beck2", "glaisher"):
            code, out, err = run(capsys, "verify", identity, "--r", "3", "--degree", "4")
            assert code == 2 and out == "" and "--degree" in err, identity
        code, out, _ = run(capsys, "verify", "series", "--r", "3", "--t", "1", "--degree", "4")
        assert code == 0 and "pass" in out

    # sha256 prefix of each csv report at --n-max 10: pins the order of points
    REPORT_DIGESTS = [
        ("beck3 --r 2", "13effec7bc43dd4e"),
        ("beck3 --r 2 --t 1", "13effec7bc43dd4e"),
        ("beck3 --r 3", "c9e865725de131b8"),
        ("beck3 --r 3 --t 1", "0e2c7b00012a52c7"),
        ("beck3 --r 4", "0418fee5e7cf8b95"),
        ("beck3 --r 4 --t 1", "389acfc875cb1adf"),
        ("beck1 --r 2", "1220ab5525ee4ec4"),
        ("beck1 --r 3", "1b41bf5338b6cd7c"),
        ("beck1 --r 4", "7e8c77d6a64f87be"),
        ("beck2 --r 2", "0a07428165512bd2"),
        ("beck2 --r 3", "1345724089419d12"),
        ("beck2 --r 4", "f5758be85de6cce8"),
        ("glaisher --r 2", "c61722bddea45149"),
        ("glaisher --r 3", "b33ef8f236aac835"),
        ("glaisher --r 4", "c3d1c43c1dacdfdb"),
        ("series --r 2", "fdda4b7db40ad676"),
        ("series --r 2 --t 1", "fdda4b7db40ad676"),
        ("series --r 3", "2e0634a5bab84ef5"),
        ("series --r 3 --t 1", "40ed7da3a5438c6d"),
        ("series --r 4", "311c2fd115ac00e9"),
        ("series --r 4 --t 1", "ea271625553d0b5f"),
    ]

    @pytest.mark.parametrize("argv, digest", REPORT_DIGESTS)
    def test_report_point_order(self, capsys, argv, digest):
        code, out, _ = run(capsys, "verify", *argv.split(), "--n-max", "10", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    # sha256 prefix, per identity and format, of the verify outputs over the
    # grid below (elapsed time masked), recorded before the checks were read
    # as columns: text, json and csv stay byte-identical
    GRID_DIGESTS = {
        "beck3": ("cf70032cda49ae6b", "13d33a713cb7f75f", "049ecc85ae0a372d"),
        "beck1": ("ef432d8065c1e535", "76918641725fdc0d", "ead461c5c7d6ea9c"),
        "beck2": ("2c174d706f43c696", "b8d4f2839596b2e0", "7256bb9e4c0694b8"),
        "glaisher": ("86245dc9aac2edf3", "54839a1dfc30bf81", "c59160ddcaaa9d32"),
        "series": ("8347dac1a0538bd2", "79016ea3d595b23e", "db8a7adc4950ec3f"),
    }

    @staticmethod
    def grid(identity):
        # r = 2..7, n_max in {0, 1, 5, 22, 60}, and every --t where it is taken
        for r in range(2, 8):
            for n_max in (0, 1, 5, 22, 60):
                argv = [identity, "--r", str(r), "--n-max", str(n_max)]
                yield argv
                if identity in ("beck3", "series"):
                    for t in range(1, r):
                        yield argv + ["--t", str(t)]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("identity", list(GRID_DIGESTS))
    def test_output_over_the_grid_is_pinned(self, capsys, identity, fmt):
        digest = hashlib.sha256()
        for argv in self.grid(identity):
            code, out, _ = run(capsys, "verify", *argv, "--format", fmt)
            out = mask_elapsed(out)
            digest.update(f"{' '.join(argv)} -> {code}\n{out}".encode())
        fmts = ("text", "json", "csv")
        assert digest.hexdigest()[:16] == self.GRID_DIGESTS[identity][fmts.index(fmt)]

    def test_usage_error_exits_two(self, capsys):
        assert run(capsys, "verify", "nonsense", "--r", "2")[0] == 2
        assert run(capsys, "count", "--family", "Or", "--n", "4")[0] == 2  # missing --r


class TestSizeLimits:
    # Sizes past the counting and series limits exit 2 at once, before any
    # table or coefficient list is allocated.
    @pytest.mark.parametrize("argv", [
        "count --family Or --r 3 --n 1000000000",
        # past the range of a float, where the cost model could not be worked out
        *(pytest.param(f"{argv} 1{'0' * digits}", id=f"{argv} 1e{digits}")
          for argv in ("count --family Or --r 3 --n", "verify glaisher --r 3 --n-max")
          for digits in (130, 400)),
        "series --gf O_r --r 3 --degree 1000000000",
        "diagram --r 3 --partition 1^100000000000",
        "diagram --r 2 --partition 100000000000",
        "bijection --map xi-inv --r 3 --partition 100000000001",
        "bijection --map zeta --inverse --r 3 --partition 1 --rect-count 300000000000",
        "bijection --map psi1 --inverse --r 3 --t 1 --partition 1 --rect-part 4"
        " --rect-count 100000000000",
    ])
    def test_huge_size_is_refused_under_a_memory_cap(self, argv):
        resource = pytest.importorskip("resource")
        cap = 3 << 29  # 1.5 GiB of address space for the child process

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-m", "beckpart", *argv.split()], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=limit)
        # a count or a check is refused by the cost model of its table, any
        # other size by its limit
        why = "is too large at r = 3: " if argv.startswith(("count", "verify")) \
            else "must be at most"
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and why in done.stderr
        assert "Traceback" not in done.stderr

    # A verify report past its column or value limit is refused before its
    # first column is read, with nothing on stdout.  Every column is counted,
    # beck1's r - 1 summands included; each of these took seconds and up to
    # a GiB before.
    @pytest.mark.parametrize("argv, columns", [
        ("verify beck3 --r 2000000 --n-max 2", 2 * 1999999 + 2),
        ("verify series --r 200000 --n-max 2", 4 + 11 * 199999),
        ("verify beck1 --r 200000 --n-max 2", 3 + 199999),
    ])
    def test_verify_past_its_limits_is_refused_before_it_is_built(self, argv, columns):
        resource = pytest.importorskip("resource")
        cap = 1 << 29  # 512 MiB of address space for the child process

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "beckpart", *argv.split()], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=limit)
        assert time.perf_counter() - start < 5
        identity, r = argv.split()[1], argv.split()[3]
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: verify {identity} at n <= 2 is too large at r = {r}: {columns} columns "
            f"and {3 * columns} values, past {cli.COLUMN_LIMIT} columns or "
            f"{cli.VALUE_LIMIT} values\n")

    def test_verify_past_its_value_limit_is_refused(self, capsys):
        # four columns of n = 0..10^6 pass the value limit, not the column limit
        assert run(capsys, "verify", "glaisher", "--r", "3", "--n-max", "1000000") == (
            2, "", "error: verify glaisher at n <= 1000000 is too large at r = 3: 4 columns "
            "and 4000004 values, past 200000 columns or 4000000 values\n")

    @staticmethod
    def peak_kib(*argv):
        # The child reports its own peak.  RUSAGE_CHILDREN read here would keep
        # the largest peak of every child this session has run, and on Linux
        # the child's own ru_maxrss starts from this process's RSS, which
        # fork and exec carry over, so VmHWM is read where the kernel has it.
        pytest.importorskip("resource")
        script = ("import resource, sys\n"
                  "from beckpart.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "try:\n"
                  "    peak = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
                  "                if line.startswith('VmHWM:'))\n"
                  "except OSError:  # no procfs: ru_maxrss, in KiB (bytes on macOS)\n"
                  "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "    peak >>= 10 if sys.platform == 'darwin' else 0\n"
                  "print(peak, file=sys.stderr)\n"
                  "sys.exit(code)\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", script, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout, int(done.stderr)

    def test_count_at_the_limit_peaks_under_32_mib(self):
        out, peak = self.peak_kib("count", "--family", "Or", "--r", "3", "--n", "2048")
        assert int(out) > 0
        assert peak < 32 << 10, peak  # KiB

    def test_verify_at_a_wide_modulus_peaks_under_50_mib(self):
        # r - 1 = 19999 residues t, each with two columns of 31 values
        out, peak = self.peak_kib("verify", "beck3", "--r", "20000", "--n-max", "30")
        assert out.startswith("verify beck3: r=20000") and " 620000/620000 " in out
        assert peak < 50 << 10, peak  # KiB

    def test_verify_csv_at_a_wide_modulus_peaks_under_50_mib(self):
        # csv is written a block of lines at a time, never held whole
        out, peak = self.peak_kib("verify", "beck3", "--r", "20000", "--n-max", "30",
                                  "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,r,t,lhs,rhs,status" and len(lines) == 1 + 620000
        assert all(line.endswith(",pass") for line in lines[1:])
        assert peak < 50 << 10, peak  # KiB

    def test_verify_json_at_a_wide_modulus_peaks_under_50_mib(self):
        # json is written a block of lines at a time, a point per line, never
        # held whole; the head says whether every point passed
        out, peak = self.peak_kib("verify", "beck3", "--r", "20000", "--n-max", "30",
                                  "--format", "json")
        assert out.startswith('{\n  "identity": "beck3",\n  "r": 20000,')
        assert '\n  "passed": true,\n' in out and out.endswith("\n  ]\n}\n")
        assert out.count("\n    {\n") == out.count('"status": "pass"') == 620000
        assert peak < 50 << 10, peak  # KiB

    def test_partition_size_limit(self, capsys):
        limit = partitions.SIZE_LIMIT
        for text in (f"{limit}", f"1^{limit}", f"2^{limit // 2}"):
            assert parse_partition(text).size == limit
        for text in (f"{limit + 1}", f"1^{limit},1", f"3^{limit}", f"1,{limit}^{limit}"):
            with pytest.raises(ValueError, match=f"partition size must be at most {limit}"):
                parse_partition(text)
        code, out, err = run(capsys, "bijection", "--map", "zeta", "--r", "3", "--partition",
                             "2", "--rect-count", str(limit))
        assert (code, out) == (2, "") and f"pair size must be at most {limit}" in err

    def test_count_past_the_limit_is_refused_at_once(self, capsys):
        # past every count table the cost model admits at these r, and at
        # 12100 just past the largest, the Or count at r = 3
        start = time.perf_counter()
        for size in ("--n", "--n-max"):
            for target in (("--family", "Or", "--r", "3"), ("--pairset", "A", "--r", "2")):
                for n in ("12100", "20000"):
                    code, out, err = run(capsys, "count", *target, size, n)
                    assert (code, out) == (2, ""), err
                    assert f"n = {n} is too large at r = {target[-1]}: " in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv, why", [
        # pair sets are counted from the flat count table, never listed, so this
        # count, once refused for its 7507569781 flat partitions, now answers
        ("count --pairset A --r 2 --n 200", "2257767718"),
        ("count --pairset A --r 1000 --n 2000", "n = 2000 is too large at r = 1000: "),
        # the gaps of a flat family are read as the repeats of its conjugate, a
        # table small enough to build: at r > n every partition is flat, and
        # the count is p(0) + ... + p(n - 1)
        ("count --family Fbar --r 300 --t 1 --n 200", "43087798145101"),
        ("count --family Fbar --r 300 --t 1 --n 2000", "n = 2000 is too large at r = 300: "),
    ])
    def test_costly_count_is_refused_at_once(self, capsys, argv, why):
        families.clear_caches()
        start = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert time.perf_counter() - start < 1
        assert "Traceback" not in err
        if why.isdigit():  # an answer, not a refusal
            assert (code, out) == (0, why + "\n"), err
        else:
            assert (code, out) == (2, "") and err.startswith("error:") and why in err, err

    def test_pair_count_under_the_walk_limit_answers(self, capsys):
        # the listing walk and its limit are gone: every pair count comes
        # from the flat count table, and |A| = |B| (zeta)
        assert run(capsys, "count", "--pairset", "A", "--r", "2", "--n", "60")[:2] == \
            (0, "26939\n")
        families.clear_caches()
        start = time.perf_counter()
        a, b = (run(capsys, "count", "--pairset", tag, "--r", "2", "--n", "200")[:2]
                for tag in ("A", "B"))
        assert time.perf_counter() - start < 1
        assert a == b == (0, "2257767718\n")

def _option(flag, values, present=False):
    # the flag with one value, or (unless present) nothing
    given = values.map(lambda v: [flag, str(v)])
    return given if present else st.one_of(st.just([]), given)


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _junk(*words):
    return st.sampled_from(["", "x", "-", "1.5", "--", *words])


# Bounded values, now and then junk: n <= 30, r in 2..7, t in -1..8, degree <= 60.
_N = st.one_of(st.integers(0, 30), st.integers(0, 30), _junk("-1"))
_N_MAX = st.integers(-1, 30)
_DEGREE = st.integers(-1, 60)
_PARTITION = st.one_of(
    st.lists(st.integers(1, 12), max_size=8).map(lambda ps: ",".join(map(str, ps))),
    st.lists(st.integers(1, 12), max_size=8).map(lambda ps: ",".join(map(str, ps))),
    st.text("0123456789^, x-", max_size=8))
_COMMON = (
    _option("--r", st.one_of(st.integers(2, 7), st.integers(2, 7), _junk("0", "1", "-2")),
            present=True),
    _option("--t", st.integers(-1, 8)),
    _option("--format", st.sampled_from(["text", "json", "csv", "xml"])),
)
_FLAGS = {
    "enumerate": (_option("--n", _N, present=True),
                  _option("--family", st.sampled_from([f.value for f in families.Family])),
                  _option("--pairset", st.sampled_from([s.value for s in families.PairSet]))),
    "count": (_option("--n", _N), _option("--n-max", _N_MAX),
              _option("--family", st.sampled_from([f.value for f in families.Family])),
              _option("--pairset", st.sampled_from([s.value for s in families.PairSet]))),
    "verify": (st.sampled_from([*cli._IDENTITIES, "series", "nope"]).map(lambda i: [i]),
               _option("--n-max", _N_MAX), _option("--degree", _DEGREE)),
    "bijection": (_option("--map", st.sampled_from(cli.MAPS), present=True),
                  _option("--partition", _PARTITION, present=True),
                  *(_option(flag, st.integers(-1, 8)) for flag in (
                      "--mark-position", "--overline-position", "--rect-part", "--rect-count")),
                  _switch("--trace"), _switch("--inverse")),
    "diagram": (_option("--partition", _PARTITION, present=True),),
    "series": (_option("--gf", st.sampled_from([*qseries.GF_NAMES, "nope"]), present=True),
               _option("--degree", _DEGREE, present=True)),
}
# argv as (subcommand, flag groups): its own flags, the common ones, and now
# and then a flag of another subcommand, an unknown flag or a stray token
FUZZ_ARGV = st.sampled_from(sorted(_FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command), *_FLAGS[command], *_COMMON,
    st.one_of(st.just([]), st.just([]), st.just([]), _switch("--bogus"),
              _switch("stray"), _option("--gf", st.just("O_r"), present=True),
              _option("--n", st.just(4), present=True))))


def _argv(parts, rnd):
    command, *groups = parts
    rnd.shuffle(groups)  # the order of flags, and of the identity, is free
    return sum(groups, [command])


def _answer(argv):
    # main's exit code, its stdout with verify's elapsed time masked, its stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, mask_elapsed(out.getvalue()), err.getvalue()


def _fresh_answer(argv):
    cli._parser = None  # so this main call builds the parser anew
    return _answer(argv)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(FUZZ_ARGV, st.randoms(use_true_random=False))
    def test_main_exits_zero_one_or_two_and_raises_nothing(self, parts, rnd):
        argv = _argv(parts, rnd)
        code, _, err = _answer(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(FUZZ_ARGV, FUZZ_ARGV, st.randoms(use_true_random=False))
    def test_a_reused_parser_answers_as_a_fresh_one(self, a, b, rnd):
        a, b = _argv(a, rnd), _argv(b, rnd)
        fresh = _fresh_answer(b)
        _fresh_answer(a)  # the parser b reuses was built for a and parsed it
        assert _answer(b) == fresh, (a, b)

    @pytest.mark.parametrize("first", [
        "--help", "verify --help", "bijection --help", "", "verify nonsense --r 2",
        "count --family Or --r x --n 4"])
    def test_a_parser_first_used_for_help_or_a_usage_error_answers_as_a_fresh_one(self, first):
        first = first.split()
        for then in (first, "--help".split(), "verify beck3 --r 3 --n-max 5".split(),
                     "bijection --map zeta --r 3 --partition 2 --rect-count 1".split()):
            fresh = _fresh_answer(then)
            _fresh_answer(first)
            assert _answer(then) == fresh, (first, then)


class TestOneParser:
    # main builds its parser tree on its first call and reuses it after: not
    # at import, and not again once every cache of the package is cleared
    SCRIPT = """if True:
        import argparse, contextlib, io, sys

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counted
        import beckpart.cli as cli

        def built_after(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))
            return len(built)

        def clear_caches():
            # every cache_clear in the loaded beckpart modules and their classes
            for name, module in list(sys.modules.items()):
                if name == "beckpart" or name.startswith("beckpart."):
                    for obj in list(vars(module).values()):
                        members = [obj]
                        if isinstance(obj, type) and obj.__module__ == name:
                            members = [getattr(m, "__func__", m) for m in vars(obj).values()]
                        for m in members:
                            if callable(getattr(m, "cache_clear", None)):
                                m.cache_clear()

        print(len(built))
        print(built_after("verify", "beck3", "--r", "3", "--n-max", "6"))
        print(built_after("count", "--family", "Or", "--r", "3", "--n", "9"))
        clear_caches()
        print(built_after("verify", "beck2", "--r", "3", "--n-max", "6"))
        print(built_after("series", "--gf", "O_r", "--r", "3", "--degree", "5"))
    """

    def test_one_parser_per_process_and_none_at_import(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        tree = 1 + len(cli._COMMANDS)  # the top parser and one per subcommand
        assert [int(line) for line in done.stdout.split()] == [0, tree, tree, tree, tree]


class TestModuleEntry:
    # `python -m beckpart` exits with main()'s return code
    @pytest.mark.parametrize("argv, code", [
        ("verify beck2 --r 2 --n-max 3", 0),
        ("verify nonsense --r 2", 2),
    ])
    def test_exit_code(self, argv, code):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-m", "beckpart", *argv.split()], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
