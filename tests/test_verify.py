import pytest

from corrdyn import verify


@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=lambda f: f.__name__.removeprefix("suite_"))
def test_suite_passes_at_seed_zero(suite):
    result = suite(0)
    assert result["passed"], result.get("witnesses")


def test_separation_counts_at_seed_zero():
    # counts of the level-tree lane, equal to the object-lane counts of the same orbits
    result = verify.suite_separation_monotonicity(0)
    assert result["info"]["counts"] == [
        [0.4, 57, 57], [0.2, 103, 103], [0.1, 189, 189], [0.05, 269, 269],
    ]

