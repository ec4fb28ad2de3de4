"""Property tests: outcome labels and the json shape of ``qsim run`` output.

``_labels`` must name every index as ``bitstring`` does, and ``_render``'s
json branch must write the bytes of json's indenting encoder for any rows,
labels that need escaping included.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oracles import indented_json  # noqa: E402
from qsim.measure import _labels, _render, bitstring  # noqa: E402


@st.composite
def indices(draw):
    n = draw(st.integers(0, 24))
    top = (1 << n) - 1
    drawn = draw(st.lists(st.integers(0, top), max_size=40))
    return n, [0, top, *drawn]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(indices())
def test_labels_equal_bitstring(case):
    n, k = case
    assert _labels(k, n) == [bitstring(i, n) for i in k]


LABELS = st.text() | st.sampled_from(['a"b', "\\", "\n", "é", " ", "", "\u00a0", "\u2028", "\x00"])
VALUES = (
    st.integers(0, 2**64 - 1)
    | st.floats()
    | st.sampled_from([5e-324, 1.0, 0.0, -0.0, 0.1, 1e300])
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.example(header={"shots": 0, "seed": 0}, key="counts", rows={})
@hypothesis.example(header={"num_qubits": 1}, key="p", rows={'a"b': 5e-324, "é\n\\": 2**64 - 1})
@hypothesis.given(
    header=st.dictionaries(LABELS, st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    key=LABELS,
    rows=st.dictionaries(LABELS, VALUES, max_size=12),
)
def test_json_equals_indenting_encoder(header, key, rows):
    hypothesis.assume(key not in header)
    assert _render("json", header, key, rows) == indented_json(header, key, rows)
