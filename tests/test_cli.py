"""Command-line interface: outputs, formats, exit codes."""

import json

import pytest

from beckpart import Partition, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ("--t", "diagram --r 4 --partition 10,7 --t 1"),
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
        monkeypatch.setattr(cli.stats, "beck_b_prime", lambda n, r: -1)
        code, out, _ = run(capsys, "verify", "beck2", "--r", "2", "--n-max", "2")
        assert code == 1 and "FAIL" in out

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

    def test_usage_error_exits_two(self, capsys):
        assert run(capsys, "verify", "nonsense", "--r", "2")[0] == 2
        assert run(capsys, "count", "--family", "Or", "--n", "4")[0] == 2  # missing --r
