"""What ``model`` owns: exact per-key totals, the category a code reports
under, and the artifact-table dialect."""
from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, strategies as st

from vinevalue.model import (
    Category, LayoutError, exact_sums, read_rows, reporting_category, write_rows,
)

#: Values whose plain running sum depends on the order: large values that
#: cancel, ones they absorb, signed zeros and subnormals.
hard_values = st.sampled_from(
    [1e16, -1e16, 1.0, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-309]
) | st.floats(min_value=-1e17, max_value=1e17, allow_nan=False)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestExactSums:
    def test_cancellation_keeps_the_small_value(self):
        pairs = [("a", 1e16), ("b", 2.0), ("a", 1.0), ("a", -1e16)]
        assert exact_sums(pairs) == {"a": 1.0, "b": 2.0}

    @given(st.lists(st.tuples(st.sampled_from("ab"), hard_values), max_size=30), st.randoms())
    def test_order_never_changes_a_bit(self, pairs, random):
        shuffled = random.sample(pairs, len(pairs))
        sums, again = exact_sums(pairs), exact_sums(shuffled)
        assert list(sums) == list(dict.fromkeys(key for key, _ in pairs))
        assert sums.keys() == again.keys()
        for key, total in sums.items():
            expected = math.fsum(value for k, value in pairs if k == key)
            assert bits(total) == bits(again[key]) == bits(expected)


@pytest.mark.parametrize("category, reported", [
    (Category.AOP, Category.AOP),
    (Category.AOP_BRANDY, Category.AOP_BRANDY),
    (Category.PGI, Category.PGI),
    (Category.NON_PGI, Category.NON_PGI),
    (Category.PSEUDO_NON_PGI, Category.NON_PGI),
    (None, Category.NON_PGI),
])
def test_reporting_category(category, reported):
    assert reporting_category(category) is reported


def test_read_rows_checks_the_header(tmp_path):
    path = tmp_path / "table.csv"
    write_rows(path, ["a", "b"], [["1", "2"]])
    assert list(read_rows(path, ("a", "b"), lambda a, b: (a, float(b)))) == [("1", 2.0)]
    with pytest.raises(LayoutError, match="table.csv has columns 'a;b', not 'a;b;c'"):
        list(read_rows(path, ("a", "b", "c"), lambda a, b, c: a))


@pytest.mark.parametrize("row, message", [
    (["x"], "table.csv line 3 has 1 fields, not 2; re-run the stage that writes it"),
    (["x", "2", "3"], "table.csv line 3 has 3 fields, not 2; re-run the stage that writes it"),
    (["x", "abc"], "table.csv line 3: could not convert string to float: 'abc'; "
                   "re-run the stage that writes it"),
], ids=["short", "long", "malformed-field"])
def test_read_rows_checks_every_row(tmp_path, row, message):
    path = tmp_path / "table.csv"
    write_rows(path, ["a", "b"], [["1", "2"], row, ["4", "5"]])
    rows = read_rows(path, ("a", "b"), lambda a, b: (a, float(b)))
    assert next(rows) == ("1", 2.0)
    with pytest.raises(LayoutError) as caught:
        next(rows)
    assert str(caught.value) == message
