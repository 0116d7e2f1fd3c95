from pathlib import Path

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests' modules need it
    pass
else:
    # Every property test draws the same examples on every run, so a
    # failure seen once comes back in the next run and in CI.
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def golden() -> Path:
    return GOLDEN
