import pytest

from cvmet import strategies


@pytest.fixture
def cold_spectra():
    """Empty the spectrum caches of `strategies`, so a test that counts
    eigendecompositions sees the same count whatever ran before it; the
    returned function empties them again."""
    def clear():
        strategies._quadrature_spectrum.cache_clear()
        strategies._cs_generator_spectrum.cache_clear()

    clear()
    return clear
