import numpy as np
import pytest

from qrbg.bits import BitStream
from qrbg.extractor import extract_stream


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED_2026)


@pytest.fixture
def extract_in_memory():
    """``extract_stream`` with what it hands its sink collected in memory
    as the result's ``output``."""

    def extract(raw, params, seed):
        pieces = []
        result = extract_stream(raw, params, seed, pieces.append)
        result.output = BitStream(np.concatenate(pieces))
        return result

    return extract
