import pytest

from corrdyn import verify


def _name(suite):
    return suite.__name__.removeprefix("suite_")


# every suite at rng_seed 0, and at rng_seed 1 to 7 as well the suites that solve
# one polynomial: ramification (whose candidates sit near fiber roots at
# infinity), root recovery and the Riemann-Hurwitz count
_ROOT_SUITES = [(verify.suite_ramification, "ramification"),
                (verify.suite_root_recovery, "root_recovery"),
                (verify.suite_riemann_hurwitz, "riemann_hurwitz_count")]


@pytest.mark.parametrize(
    "suite, rng_seed",
    [(s, 0) for s in verify.SUITES.values()] + [(s, k) for s, _ in _ROOT_SUITES for k in range(1, 8)],
    ids=[_name(s) for s in verify.SUITES.values()]
    + [f"{name}-rng_seed{k}" for _, name in _ROOT_SUITES for k in range(1, 8)],
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



def test_every_printed_name_selects_its_suite():
    # a full run prints each suite's name; selecting by that name runs that suite alone
    full = verify.run_suites("all", 0)["results"]
    assert [r["name"] for r in full] == list(verify.SUITES)
    for r in full:
        assert verify.run_suites([r["name"]], 0)["results"] == [r]
