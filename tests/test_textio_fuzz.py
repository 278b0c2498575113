"""Fuzzed readers: every token mutation of a valid text parses or raises
ParseError.

The texts are valid ``matching v1``, ``region v1``, ``tiling v1``,
``triple-diagram v1`` (with free loops and floating parts) and
``movelog v1`` texts (a reduction log and an inflation log, so every
move line occurs).  A mutant replaces, deletes or repeats a token, or
deletes, repeats or swaps lines, one to three times.  Replacement
tokens come from the text itself and from a pool of near misses; their
numbers stay small, so no mutant asks for a huge diagram.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tricross import (Matching, Region, enumerate_tilings,  # noqa: E402
                      inflate, reduce_to_minimal, standard_diagram,
                      tiling_to_diagram)
from tricross import textio  # noqa: E402
from tricross.moves import MoveLog  # noqa: E402

from test_golden import floating_diagram, inflation  # noqa: E402

POOL = ("", "0", "1", "2", "3", "-1", "7", "99", "x", "1.5", "B0", "B-1",
        "B99", "C0.0", "C0.6", "C9.1", "C-1.2", "C0.", "0.1", "0:1", "1:0",
        "-1:1", "a:b", "H", "V", "n", "crossings", "edge", "loops", "pair",
        "sq", "dom", "initial", "22", "10", "01", "drop", "add", "l", "r")


def _log_text(start, moves):
    log = MoveLog(start)
    log.record(start, moves)
    return textio.write_movelog(start, log)


def _corpus():
    """(reader name, reader of one text, valid texts)."""
    m = Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})
    region = Region.rectangle(4, 2)
    tiling = enumerate_tilings(region)[1]
    inflated = inflation(4)
    _, reduction = reduce_to_minimal(inflated)
    start = standard_diagram(m)
    grown = inflate(start, 2, 1, 2, random.Random(5))[1]
    return [
        ("read_matching", textio.read_matching,
         [textio.write_matching(m)]),
        ("read_region", textio.read_region, [textio.write_region(region)]),
        ("read_tiling", textio.read_tiling, [textio.write_tiling(tiling)]),
        ("read_diagram", textio.read_diagram,
         [textio.write_diagram(d) for d in (
             tiling_to_diagram(tiling), inflated, floating_diagram(1))]),
        ("read_movelog-reduction",
         lambda text: textio.read_movelog(text, inflated),
         [textio.write_movelog(inflated, reduction)]),
        ("read_movelog-inflation",
         lambda text: textio.read_movelog(text, start),
         [_log_text(start, grown)]),
    ]


CORPUS = _corpus()


def _mutant(data, text):
    lines = [line.split(" ") for line in text.splitlines()]
    words = sorted({w for line in lines for w in line})
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines[i])))
        op = data.draw(st.sampled_from(("replace", "delete", "repeat",
                                        "drop line", "repeat line",
                                        "swap lines")))
        if op == "replace" and j < len(lines[i]):
            lines[i][j] = data.draw(st.sampled_from(POOL + tuple(words)))
        elif op == "delete" and j < len(lines[i]):
            del lines[i][j]
        elif op == "repeat" and j < len(lines[i]):
            lines[i].insert(j, lines[i][j])
        elif op == "drop line" and len(lines) > 1:
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, list(lines[i]))
        elif op == "swap lines":
            k = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("name, read, texts", CORPUS,
                         ids=[name for name, _, _ in CORPUS])
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_mutated_text_parses_or_raises_parse_error(name, read, texts,
                                                     data):
    text = _mutant(data, data.draw(st.sampled_from(texts)))
    try:
        read(text)
    except textio.ParseError:
        pass
