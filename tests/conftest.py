import pytest

from randskew.cli import _openblas_pools


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """Undo the thread policy of an in-process ``cli.main`` call, so the
    BLAS thread count a test sees does not depend on the tests before it."""
    pools = _openblas_pools()
    before = [get() for *_, get, _ in pools]
    yield
    for (*_, set_threads), threads in zip(pools, before):
        set_threads(threads)
