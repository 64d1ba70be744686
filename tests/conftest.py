import pytest

from tempseg import seqcore


@pytest.fixture
def set_tile_rows(monkeypatch):
    """A function that patches seqcore.TILE_ROWS for one test. The kernel
    memo keys on the call shape alone, so it is emptied when the patch
    starts and again when the test ends: no kernel of another tile size
    stands in for the patched one, and none outlives the test."""
    def patch(rows):
        monkeypatch.setattr(seqcore, "TILE_ROWS", rows)
        seqcore._call_kernel.cache_clear()
    yield patch
    seqcore._call_kernel.cache_clear()
