import pytest

from corrdyn import verify


def _name(suite):
    return suite.__name__.removeprefix("suite_")


# every suite at rng_seed 0, and ramification (whose candidates sit near fiber
# roots at infinity) at rng_seed 1 to 7 as well
@pytest.mark.parametrize(
    "suite, rng_seed",
    [(s, 0) for s in verify.ALL_SUITES] + [(verify.suite_ramification, k) for k in range(1, 8)],
    ids=[_name(s) for s in verify.ALL_SUITES] + [f"ramification-rng_seed{k}" for k in range(1, 8)],
)
def test_suite_passes_at_seed_zero(suite, rng_seed):
    result = suite(rng_seed)
    assert result["passed"], result.get("witnesses")


def test_separation_counts_at_seed_zero():
    # counts of the level-tree lane, equal to the object-lane counts of the same orbits
    result = verify.suite_separation_monotonicity(0)
    assert result["info"]["counts"] == [
        [0.4, 57, 57], [0.2, 103, 103], [0.1, 189, 189], [0.05, 269, 269],
    ]

