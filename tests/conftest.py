import pytest

from bdlab import weights


@pytest.fixture
def no_pool():
    """Start and end the test without a live process pool, so that no
    fake executor outlives it and no earlier pool is reused; no call's
    chunks may be left listed when the test ends."""
    weights._drop_pool()
    yield
    assert weights._ahead == []
    weights._drop_pool()
