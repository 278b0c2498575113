"""Property tests: the strand kernel agrees with the reference walk on
seeded orientation-respecting port pairings, most of them nonplanar,
and on any seeded port map it either agrees or raises DiagramError."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricross import DiagramError, TripleDiagram  # noqa: E402
from tricross.diagram import strand_path, trace_strands  # noqa: E402

from test_golden import random_pairing  # noqa: E402
from test_strands import reference_strands  # noqa: E402


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_kernel_matches_reference_on_pairings(seed):
    d = random_pairing(random.Random(seed))
    ref = reference_strands(d)
    got = trace_strands(d.n, d.crossings, d.partners())
    assert got == tuple((s['start'], s['end'], s['visits']) for s in ref)
    assert [strand_path(s) for s in got] == [s['path'] for s in ref]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_kernel_on_any_map_raises_or_matches_reference(seed):
    """A map of ports to random ports, some unpaired: the kernel ends,
    and either raises DiagramError or returns the reference's strands."""
    rng = random.Random(seed)
    n, k = rng.randint(0, 3), rng.randint(0, 3)
    crossings = tuple(sorted(rng.sample(range(6), k)))
    ports = ([('b', i) for i in range(2 * n)]
             + [('c', c, s) for c in crossings for s in range(6)])
    edges = {p: rng.choice(ports) for p in ports if rng.random() < 0.97}
    d = TripleDiagram(n, crossings, edges)
    try:
        got = trace_strands(n, crossings, d.partners())
    except DiagramError:
        return
    ref = reference_strands(d)
    assert got == tuple((s['start'], s['end'], s['visits']) for s in ref)
