"""Property test: the vectorized Philox draw equals numpy's Philox Generator."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qsim.measure import _philox_draws  # noqa: E402


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**64 - 1),
    first_shot=st.integers(0, 2**64 - 8),
    count=st.integers(1, 8),
)
def test_draws_equal_generator_first_double(seed, first_shot, count):
    shots = np.arange(first_shot, first_shot + count, dtype=np.uint64)
    expected = [
        np.random.Generator(np.random.Philox(key=np.array([seed, int(s)], dtype=np.uint64))).random()
        for s in shots
    ]
    np.testing.assert_array_equal(_philox_draws(seed, shots), expected)
