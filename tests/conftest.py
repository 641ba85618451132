import pytest

from periodhecke.congruence import rho
from periodhecke.hecke import vector_hecke


@pytest.fixture
def fresh_caches():
    """Empty the rho and vector_hecke memos before and after the test, so a
    test that patches their collaborators neither reads an operator built
    without the patch nor leaves one built with it."""
    vector_hecke.cache_clear()
    rho.cache_clear()
    yield
    vector_hecke.cache_clear()
    rho.cache_clear()
