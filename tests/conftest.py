import tracemalloc

import pytest

from trifocal import ideal, orbits


@pytest.fixture(scope="session")
def trifocal_nf():
    return orbits.trifocal_normal_form()


@pytest.fixture(scope="session")
def discovery5(trifocal_nf):
    """Generator discovery through degree 5 (fast)."""
    return ideal.discover(5, trifocal_nf, seed=2024)


@pytest.fixture(scope="session")
def discovery6(trifocal_nf):
    """Full generator discovery through degree 6 (the heavy fixture)."""
    return ideal.discover(6, trifocal_nf, seed=2024)


@pytest.fixture
def traced_peak_mb():
    """peak(f, *args) -> (MB, f(*args)): the traced peak of the call above
    what was traced before it.  tracemalloc sees numpy's buffers, so this
    needs no process-wide measurement."""
    def peak(f, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = f(*args)
            return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20, out
        finally:
            tracemalloc.stop()
    return peak
