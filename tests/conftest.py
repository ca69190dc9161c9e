import pytest

from chardeg.verify import Harness


@pytest.fixture(scope="session")
def harness():
    """One acceptance harness at seed 42, so each of its catalogs is built once per session."""
    return Harness(seed=42)
