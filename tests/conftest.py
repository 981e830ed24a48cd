import pytest

from romik import SequenceCache


@pytest.fixture(scope="session")
def cache():
    """Shared cache for read-only tests; sized for the unit-test ranges."""
    c = SequenceCache()
    c.build_s_table(25)
    return c


@pytest.fixture(scope="session")
def exact150():
    """A cache holding the exact table to 150, read-only, shared by the tests
    that compare residues with it."""
    c = SequenceCache()
    c.build_s_table(150)
    return c
