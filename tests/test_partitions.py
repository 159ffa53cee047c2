"""Core partition type: operations, predicates, parsing, diagrams."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beckpart import (
    Composition,
    DecoratedPartition,
    Family,
    Partition,
    RectanglePair,
    clear_caches,
    enumerate_family,
    is_member,
    modular_diagram,
    modular_diagram_rows,
    parse_partition,
    rectangle,
)
from beckpart.partitions import MARK, OVERLINE

partitions_st = st.lists(st.integers(1, 30), max_size=10).map(Partition.from_multiset)


def naive_conjugate(lam):
    # independent oracle: transpose the cell set of the Ferrers diagram
    cells = {(i, j) for i, p in enumerate(lam) for j in range(p)}
    cols = []
    j = 0
    while any(c[1] == j for c in cells):
        cols.append(sum(1 for c in cells if c[1] == j))
        j += 1
    return Partition(cols)


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_rejects_non_integer_parts(self):
        with pytest.raises(ValueError):
            Partition((True,))
        with pytest.raises(ValueError):
            Partition.from_multiset([2.5, 1])
        with pytest.raises(ValueError):
            Partition.from_multiset([3, True])

    def test_empty_is_partition_of_zero(self):
        assert Partition().size == 0 and len(Partition()) == 0


class TestParse:
    def test_exponential_fixture(self):
        assert parse_partition("5^2,4,3^3,1^2") == Partition((5, 5, 4, 3, 3, 3, 1, 1))

    def test_empty_text(self):
        assert parse_partition("") == Partition()

    def test_unsorted_plain_input_canonicalizes(self):
        # oracle: multiset sort
        assert parse_partition("3,1,3,2") == Partition(sorted([3, 1, 3, 2], reverse=True))

    def test_errors_name_token(self):
        with pytest.raises(ValueError, match="x"):
            parse_partition("3,x,1")
        with pytest.raises(ValueError, match="0"):
            parse_partition("3,0")
        with pytest.raises(ValueError, match="4\\^0"):
            parse_partition("4^0")

    @given(partitions_st)
    def test_round_trip_both_notations(self, lam):
        assert parse_partition(lam.to_plain()) == lam
        assert parse_partition(lam.to_exponential()) == lam

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        # a valid token "v" or "v^e", with the parts it stands for
        st.tuples(st.integers(1, 30), st.integers(1, 30), st.booleans(), st.booleans()).map(
            lambda x: (f"{' ' * x[3]}{x[0]}^{x[1]}" if x[2] or x[1] > 1 else f"{x[0]} ",
                       [x[0]] * x[1])),
        # junk, which may still parse ("+3", "0012") but never as anything else
        st.one_of(st.sampled_from(["", " ", "0", "-3", "x", "^", "1^", "^2", "2^0", "3^-1",
                                   "1.5", "1^2^3", "1^100001", "nan", "\u0663", "1 2"]),
                  st.text("0123456789^-+ ,x", max_size=4)).map(lambda junk: (junk, None))),
        max_size=8))
    def test_text_parses_to_its_multiset_or_raises_value_error(self, tokens):
        text = ",".join(token for token, _ in tokens)
        try:
            got = parse_partition(text)
        except ValueError:
            got = None
        if all(parts is not None for _, parts in tokens):
            assert got == Partition(sorted(sum((parts for _, parts in tokens), []),
                                           reverse=True)), text
        if got is not None:
            assert type(got) is Partition and got == Partition.from_multiset(got)


class TestOperations:
    def test_union_fixture(self):
        assert Partition((32, 24, 23, 16, 12)).union((5, 5, 5)) == \
            Partition((32, 24, 23, 16, 12, 5, 5, 5))

    def test_union_identity(self):
        lam = Partition((4, 2, 1))
        assert lam.union(Partition()) == lam

    def test_union_merge(self):
        assert Partition((3, 1)).union((2, 2)) == Partition((3, 2, 2, 1))

    def test_sum_fixtures(self):
        assert Partition((2, 1)) + Partition((3, 3)) == Partition((5, 4))
        assert Partition((22, 19, 15, 15, 13, 10, 6, 5, 2)) + (5, 5, 5) == \
            Partition((27, 24, 20, 15, 13, 10, 6, 5, 2))
        assert Partition((4, 2)) + Partition() == Partition((4, 2))

    def test_subtract_fixtures(self):
        assert Partition((27, 24, 20, 15, 13, 10, 6, 5, 2)) - (5, 5, 5) == \
            Partition((22, 19, 15, 15, 13, 10, 6, 5, 2))
        assert Partition((4, 3, 1)) - (2, 2) == Partition((2, 1, 1))
        assert Partition((4, 3, 1)) - Partition() == Partition((4, 3, 1))

    def test_subtract_domain_errors(self):
        with pytest.raises(ValueError):
            Partition((3, 1)) - (1, 1, 1)  # subtrahend longer
        with pytest.raises(ValueError):
            Partition((3, 1)) - (4,)  # larger part
        with pytest.raises(ValueError):
            Partition((3, 3, 3)) - (3, 1, 1)  # non-monotone difference

    @given(partitions_st, partitions_st)
    def test_sizes_respected(self, lam, mu):
        assert lam.union(mu).size == lam.size + mu.size
        assert (lam + mu).size == lam.size + mu.size

    @given(partitions_st, partitions_st)
    def test_subtract_inverts_sum(self, lam, mu):
        assert (lam + mu) - mu == lam


class TestConjugate:
    def test_worked_instances(self):
        assert Partition((20, 20, 17, 13, 10, 10, 10, 3)).conjugate() == \
            parse_partition("8^3,7^7,4^3,3^4,2^3")
        assert Partition((20, 17, 13, 10, 10, 3)).conjugate() == \
            parse_partition("6^3,5^7,3^3,2^4,1^3")
        assert Partition().conjugate() == Partition()

    def test_involution_exhaustive(self):
        for n in range(0, 31):
            for lam in enumerate_family(n, Family.ALL):
                assert lam.conjugate().conjugate() == lam

    @given(partitions_st)
    def test_matches_cell_transpose_oracle(self, lam):
        assert lam.conjugate() == naive_conjugate(lam)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 400), max_size=400).map(Partition.from_multiset))
    def test_large_involution_and_column_counts(self, lam):
        conj = lam.conjugate()
        assert conj.conjugate() == lam
        # column j of the Ferrers diagram holds one cell per part >= j
        assert list(conj) == [sum(1 for p in lam if p >= j)
                              for j in range(1, max(lam, default=0) + 1)]

    def test_swaps_bounded_and_flat_families(self):
        for r in range(2, 6):
            for n in range(0, 31):
                flat = set(enumerate_family(n, Family.F_R, r))
                bounded = set(enumerate_family(n, Family.D_R, r))
                assert {lam.conjugate() for lam in bounded} == flat
                assert {lam.conjugate() for lam in flat} == bounded


class TestMembership:
    def test_flat_fixture(self):
        assert is_member(Partition((10, 7, 7, 5, 4, 3)), Family.F_R, 4)

    def test_empty_is_regular_for_all_r(self):
        for r in range(2, 8):
            assert is_member(Partition(), Family.O_R, r)

    def test_between_multiplicity_fixture(self):
        assert is_member(parse_partition("20,17,13,10^7,3"), Family.T_R, 5)
        assert not is_member(parse_partition("20,17,13,10^5,3"), Family.T_R, 5)
        assert not is_member(parse_partition("10^10"), Family.T_R, 5)

    def test_one_steep_counts_final_gap(self):
        # exactly one gap >= r, the final part counting as a gap
        for lam in enumerate_family(12, Family.F_1R, 3):
            assert sum(1 for g in lam.gaps() if g >= 3) == 1

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            is_member(Partition((2, 1)), "nope", 2)


class TestModularDiagram:
    def test_four_modular_fixture(self):
        rows = modular_diagram_rows(Partition((10, 7, 7, 5, 4, 3)), 4)
        assert rows == [[4, 4, 2], [4, 3], [4, 3], [4, 1], [4], [3]]

    def test_empty(self):
        assert modular_diagram(Partition(), 3) == ""

    def test_divisible_part_gets_full_cell(self):
        assert modular_diagram_rows(Partition((5,)), 5) == [[5]]

    @given(partitions_st, st.integers(2, 7))
    def test_rows_sum_to_parts(self, lam, r):
        for part, row in zip(lam, modular_diagram_rows(lam, r)):
            assert sum(row) == part
            assert 1 <= row[-1] <= r and all(c == r for c in row[:-1])


class TestDecorations:
    def test_overline_must_be_last_occurrence(self):
        base = Partition((3, 3, 1))
        DecoratedPartition(base, OVERLINE, 2)  # second 3 is the last occurrence
        with pytest.raises(ValueError):
            DecoratedPartition(base, OVERLINE, 1)

    def test_mark_any_occurrence(self):
        base = Partition((7, 7))
        assert DecoratedPartition(base, MARK, 1).value == 7
        assert DecoratedPartition(base, MARK, 2).text() == "7,7*"

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            DecoratedPartition(Partition((2,)), MARK, 2)

    def test_composition_allows_zero_entries(self):
        assert Composition((2, 0, 3)) == (2, 0, 3)
        with pytest.raises(ValueError):
            Composition((1, -1))

    def test_rectangle(self):
        assert rectangle(5, 3) == Partition((5, 5, 5))


# small parts repeat, as in a listing; large ones reach values of many digits
parts_st = st.one_of(st.integers(1, 30), st.integers(1, 10 ** 30),
                     st.integers(10 ** 29, 10 ** 30))
big_partitions_st = st.lists(parts_st, max_size=12).map(Partition.from_multiset)


@st.composite
def decorated_st(draw):
    base = draw(big_partitions_st.filter(len))
    decoration = draw(st.sampled_from([MARK, OVERLINE]))
    # an overline sits on the last occurrence of its value, a mark anywhere
    spots = [i for i in range(1, len(base) + 1)
             if decoration == MARK or i == len(base) or base[i] != base[i - 1]]
    return DecoratedPartition(base, decoration, draw(st.sampled_from(spots)))


def reference_text(x):
    # the rendering built from str of every part
    if isinstance(x, Partition):
        return ",".join(map(str, x))
    if isinstance(x, DecoratedPartition):
        bits = list(map(str, x.base))
        bits[x.position - 1] += "*" if x.decoration == MARK else "~"
        return ",".join(bits)
    return f"(({','.join(map(str, x.flat))}), ({x.part}^{x.count}))"


class TestRendering:
    @given(st.one_of(
        big_partitions_st,
        decorated_st(),
        st.builds(RectanglePair, big_partitions_st, parts_st, st.integers(1, 10 ** 30)),
    ))
    @example(Partition((10 ** 30, 10 ** 30, 10 ** 29 + 7, 1)))
    def test_text_equals_str_of_every_part(self, x):
        # from a memo that may already hold the values, then from an empty one
        assert str(x) == reference_text(x)
        clear_caches()
        assert str(x) == reference_text(x)
        assert str(x) == reference_text(x)


class TestBoolIsNotAnInteger:
    def test_rectangle(self):
        with pytest.raises(ValueError):
            rectangle(True, 2)
        with pytest.raises(ValueError):
            rectangle(2, True)

    def test_rectangle_pair(self):
        with pytest.raises(ValueError):
            RectanglePair(Partition((1,)), True, 1)
        with pytest.raises(ValueError):
            RectanglePair(Partition((1,)), 1, True)

    def test_decorated_partition(self):
        with pytest.raises(ValueError):
            DecoratedPartition(Partition((2,)), MARK, True)

    def test_composition(self):
        with pytest.raises(ValueError):
            Composition((1, False))
