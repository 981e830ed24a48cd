import pytest

from romik import SequenceCache


@pytest.fixture(scope="session")
def cache():
    """Shared cache for read-only tests; sized for the unit-test ranges."""
    c = SequenceCache()
    c.build_s_table(25)
    return c
