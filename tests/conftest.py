import pytest

from randskew import _lapack, parallel


@pytest.fixture(autouse=True)
def _restore_cli_policy():
    """Undo the thread and worker policy of an in-process ``cli.main``
    call, so the BLAS thread count and ``parallel.workers`` a test sees do
    not depend on the tests before it."""
    pools = _lapack.openblas_pools()
    before = [get() for *_, get, _ in pools]
    workers = parallel.workers
    yield
    for (*_, set_threads), threads in zip(pools, before):
        set_threads(threads)
    parallel.workers = workers
