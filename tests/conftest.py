import pytest

from bdlab import weights


@pytest.fixture
def no_pool():
    """Start and end the test without a live process pool, so that no
    fake executor outlives it and no earlier pool is reused."""
    weights._drop_pool()
    yield
    weights._drop_pool()
