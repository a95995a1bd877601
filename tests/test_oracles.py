"""Every row of ``oracles.ORACLES``: a fast path against its
independent reference, or one side of a law against the other, on the
row's seeded cases."""

from collections import Counter

import pytest

from mediankit.oracles import ORACLES


@pytest.mark.parametrize("row", ORACLES, ids=[row.name for row in ORACLES])
def test_fast_path_matches_its_reference(row):
    count, kinds = 0, Counter()
    for case in row.cases():
        expected = row.oracle(*case)
        assert row.fast(*case) == expected, (row.name, case)
        kinds.update(row.kinds(case, expected))
        count += 1
    assert count >= row.min_cases
    assert kinds.keys() == row.want.keys()
    assert all(kinds[k] >= n for k, n in row.want.items()), kinds
