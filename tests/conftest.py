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
        help="run the GTF81 exhaustion (about 4 minutes) and the published-count checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="opt-in: pass --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
