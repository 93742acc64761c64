import pytest
from hypothesis import settings

# Derandomized and small, so that every run of the suite draws the same
# examples; the property tests then cost a few seconds in all.
settings.register_profile(
    "suite", derandomize=True, database=None, max_examples=25, deadline=None
)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run the checks of the published order-81 counts, which fail by design",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="opt-in: pass --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


def search_levels(q, n, R):
    """(dim, candidates, classes) of every level of spread_sets_by_rank(q,
    n, R), default prune schedule, then ("spread sets", the spread sets of
    the last level's survivors, their classes)."""
    from spreadrank import algebra, equivalence, search

    pts = algebra.points_for(q, n)
    prune = search.default_prune_schedule(n)
    current = [search._diag_space(q, n)]
    levels = []
    for dim in range(n + 1, R + 1):
        candidates, _, _ = search._orbit_children(current, pts, equivalence.automorphism_groups)
        classes = equivalence.equivalence_classes(candidates)
        levels.append((dim, candidates, classes))
        if dim in prune:
            classes = [s for s in classes if search.contains_partial_spread(s, prune[dim])]
        current = classes
    spread_sets = [s for space in current for s in search.iter_spread_sets(space, n)]
    levels.append(("spread sets", spread_sets, equivalence.equivalence_classes(spread_sets)))
    return levels


@pytest.fixture(scope="session")
def order8_levels():
    return search_levels(2, 3, 8)


@pytest.fixture(scope="session")
def order16_levels():
    """Candidates of the order-16 levels up to dimension 7, by dimension."""
    return {dim: candidates for dim, candidates, _ in search_levels(2, 4, 7)}
