import math

import numpy as np
import pytest
from hypothesis import settings

from entmono import PureState, random_pure_state

# Property tests draw the same examples on every run and never time out.
settings.register_profile("entmono", derandomize=True, deadline=None, database=None, max_examples=50)
settings.load_profile("entmono")


def ket(labels, dims, terms, normalize=False):
    """Build a PureState from {index tuple: amplitude}."""
    dims = tuple(dims)
    vec = np.zeros(math.prod(dims), dtype=complex)
    for idx, amp in terms.items():
        k = 0
        for i, d in zip(idx, dims):
            k = k * d + i
        vec[k] = amp
    return PureState(tuple(labels), dims, vec, normalize=normalize)


def haar(labels, dims, seed):
    """The Haar state ``random_pure_state(dims, seed)`` on the given labels."""
    return PureState(tuple(labels), tuple(dims), random_pure_state(dims, seed).amplitudes)


@pytest.fixture
def bell():
    s = 1 / math.sqrt(2)
    return ket("AB", (2, 2), {(0, 0): s, (1, 1): s})


@pytest.fixture
def ghz3():
    s = 1 / math.sqrt(2)
    return ket("ABC", (2, 2, 2), {(0, 0, 0): s, (1, 1, 1): s})


@pytest.fixture
def w4():
    return ket("ABCD", (2, 2, 2, 2),
               {(1, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.5, (0, 0, 1, 0): 0.5, (0, 0, 0, 1): 0.5})


@pytest.fixture
def xi_state():
    s = math.sqrt(5) / 4
    return ket("ABCD", (2, 2, 2, 2),
               {(0, 0, 0, 0): s, (1, 1, 1, 1): 0.25, (0, 1, 0, 0): s, (1, 0, 1, 0): s})
