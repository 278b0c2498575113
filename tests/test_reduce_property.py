"""Property test: a connected diagram one crossing over the minimum,
drawn for a matching on 4 or 5 pairs that needs at most 2 crossings,
reduces to the standard diagram, and its move log never raises the
crossing count; each recorded face index is the one the replaying
diagram reads before the move, and the log ends where the reducer
did."""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricross import (enumerate_connected_diagrams,  # noqa: E402
                      minimal_crossing_count, reduce_to_minimal,
                      standard_diagram)
from tricross.moves import apply_move  # noqa: E402

from conftest import all_matchings  # noqa: E402
from test_textio_cli import reference_face_index  # noqa: E402

MATCHINGS = [m for n in (4, 5) for m in all_matchings(n)
             if minimal_crossing_count(m) <= 2]


@lru_cache(maxsize=None)
def cell(i):
    """The i-th matching and its connected diagrams at min+1 crossings,
    in key order."""
    m = MATCHINGS[i]
    found = enumerate_connected_diagrams(m, minimal_crossing_count(m) + 1)
    return m, [found[key] for key in sorted(found)]


# a cell with n=5 and 2 crossings takes 2-4 s to enumerate on a 2-vCPU
# host; the 12 derandomized examples draw two of them
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reduce_reaches_the_standard_diagram_without_raising_crossings(data):
    m, diagrams = cell(data.draw(st.integers(0, len(MATCHINGS) - 1)))
    d = data.draw(st.sampled_from(diagrams))
    final, log = reduce_to_minimal(d)
    cur, counts = d, [d.crossing_count()]
    for mv, face in zip(log.moves, log.faces, strict=True):
        assert face == reference_face_index(cur, mv)
        cur = apply_move(cur, mv)
        counts.append(cur.crossing_count())
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == counts[0] - 1
    assert (cur.canonical_key() == log.end.canonical_key()
            == final.canonical_key() == standard_diagram(m).canonical_key())
