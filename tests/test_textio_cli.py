"""Text formats and the command-line surface."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from tricross import (Matching, standard_diagram, Region, enumerate_tilings,
                      tiling_to_diagram, enumerate_component, inflate,
                      to_standard, empty_diagram)
from tricross.diagram import TripleDiagram, parse_port
from tricross.moves import MoveError, MoveLog, apply_01, apply_move
from tricross import textio
from tricross.render import render_diagram, render_tiling, RenderSpec

from conftest import all_matchings

PKG = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "tricross.cli", *args],
        input=stdin, capture_output=True, text=True,
        cwd=str(PKG), env={"PYTHONPATH": str(PKG / "src"), "PATH": "/usr/bin:/bin"})


def test_diagram_roundtrip_exhaustive_small():
    for n in range(5):
        for m in all_matchings(n):
            d = standard_diagram(m)
            text = textio.write_diagram(d)
            back = textio.read_diagram(text)
            assert back.canonical_key() == d.canonical_key()
            assert textio.write_diagram(back) == text


def test_diagram_roundtrip_with_loops(rotation3):
    from tricross import add_loop
    d = standard_diagram(rotation3)
    d = add_loop(d, d.faces()[3].key)
    text = textio.write_diagram(d)
    back = textio.read_diagram(text)
    assert back.canonical_key() == d.canonical_key()


def test_loop_face_named_twice_is_refused(rotation3):
    """``loops 0:1 0:2`` would otherwise read as 2 loops, not 3; the line
    that names the face again is the error."""
    text = textio.write_diagram(standard_diagram(rotation3))
    line_no = len(text.splitlines()) + 1
    for records, bad_line in (("loops 0:1 0:2\n", line_no),
                              ("loops 0:1\n\nloops 1:1 0:2\n", line_no + 2)):
        with pytest.raises(textio.ParseError) as exc:
            textio.read_diagram(text + records)
        assert exc.value.line_no == bad_line
        assert exc.value.message == "loop face 0 named twice"


def test_empty_disk_loops_roundtrip():
    """The empty disk's face has no dart; its loops still have a key."""
    d = empty_diagram().with_loops({(): 2})
    text = textio.write_diagram(d)
    assert text.splitlines()[-1] == "loops 0:2"
    back = textio.read_diagram(text)
    assert back.canonical_key() == d.canonical_key()
    assert textio.write_diagram(back) == text
    final, log = to_standard(d)
    assert not final.loops and [mv.kind for mv in log.moves] == ["drop"] * 2
    # its log names the face by index 0, both ways
    text = textio.write_movelog(d, log)
    assert text.splitlines()[2:] == ["drop 0", "drop 0"]
    assert textio.read_movelog(text, d)[0] == log
    with pytest.raises(textio.ParseError, match="face index 1 out of range"):
        textio.read_movelog(text.replace("drop 0\n", "drop 1\n", 1), d)


def test_parsers_skip_blank_lines_and_refuse_unknown_records(rotation3):
    d = standard_diagram(rotation3)
    region = Region.rectangle(2, 1)
    tiling = enumerate_tilings(region)[0]
    head = "movelog v1\ninitial %s\n" % textio.key_digest(d.canonical_key())
    cases = ((textio.read_diagram, textio.write_diagram(d), d.canonical_key(),
              lambda x: x.canonical_key()),
             (textio.read_matching, textio.write_matching(rotation3),
              rotation3, None),
             (textio.read_region, textio.write_region(region),
              region.squares, lambda x: x.squares),
             (textio.read_tiling, textio.write_tiling(tiling), tiling, None))
    for read, text, want, view in cases:
        first, rest = text.split("\n", 1)
        got = read(first + "\n\n" + rest + "  \n")
        assert (view(got) if view else got) == want
        with pytest.raises(textio.ParseError) as exc:
            read(text + "bogus 1\n")
        assert exc.value.line_no == len(text.splitlines()) + 1
    log, end = textio.read_movelog(head + "\n", d)
    assert log.moves == [] and end is d
    with pytest.raises(textio.ParseError) as exc:
        textio.read_movelog(head + "\nswap 1\n", d)
    assert exc.value.line_no == 4
    assert exc.value.message == "unknown move 'swap'"


def test_matching_roundtrip():
    for n in range(5):
        for m in all_matchings(n):
            assert textio.read_matching(textio.write_matching(m)) == m


def test_matching_parse_errors():
    with pytest.raises(textio.ParseError):
        textio.read_matching("matching v1\nn 2\npair 0 1\npair 2 1\n")
    with pytest.raises(textio.ParseError):
        textio.read_matching("wrong header\n")


def test_negative_counts_are_refused():
    """A negative ``n`` or ``crossings`` is a parse error on its line:
    unchecked, ``crossings -2`` with ``edge B0 B1`` read as a valid
    diagram, and a matching's ``n -1`` surfaced later, in another
    message."""
    cases = [
        (textio.read_diagram, "triple-diagram v1\nn 1\ncrossings -2\n"
                              "edge B0 B1\n", 3, "negative crossings"),
        (textio.read_diagram, "triple-diagram v1\nn -1\ncrossings 0\n",
         2, "negative n"),
        (textio.read_matching, "matching v1\nn -1\n", 2, "negative n"),
    ]
    for read, text, line_no, message in cases:
        with pytest.raises(textio.ParseError) as exc:
            read(text)
        assert (exc.value.line_no, exc.value.message) == (line_no, message)


def test_non_integer_coordinates_name_their_line():
    for read, text in ((textio.read_region, "region v1\nsq 0 0\nsq a 0\n"),
                       (textio.read_tiling, "tiling v1\ndom 0 0.5 H\n")):
        with pytest.raises(textio.ParseError) as exc:
            read(text)
        assert exc.value.line_no == len(text.splitlines())
        assert exc.value.message == "coordinates must be integers"


def test_region_tiling_roundtrip():
    region = Region.rectangle(4, 2)
    assert textio.read_region(textio.write_region(region)).squares \
        == region.squares
    for t in enumerate_tilings(region):
        assert textio.read_tiling(textio.write_tiling(t)) == t


def test_ascii_inputs():
    region = textio.read_ascii_region("##\n##\n")
    assert len(region) == 4
    tiling = textio.read_ascii_tiling("ab\nab\n")
    assert tiling.dominoes == {(0, 0, False), (1, 0, False)}
    tiling = textio.read_ascii_tiling("aa\nbb\n")
    assert tiling.dominoes == {(0, 0, True), (0, 1, True)}
    with pytest.raises(ValueError):
        textio.read_ascii_tiling("aa\naa\n")


def test_movelog_roundtrip():
    rng = random.Random(31)
    m = Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})
    d0 = standard_diagram(m)
    d, _ = inflate(d0, 2, 1, 3, rng)
    final, log = to_standard(d)
    text = textio.write_movelog(d, log)
    parsed, end = textio.read_movelog(text, d)
    assert end.canonical_key() == final.canonical_key()
    assert [mv.kind for mv in parsed.moves] == [mv.kind for mv in log.moves]


def test_movelog_roundtrip_every_move_kind():
    """Inflation logs (01, add, 22) and reduction logs (22, 10, drop)
    read back to the same moves and keys, and write back byte for byte."""
    rng = random.Random(8)
    kinds = set()
    for m in (Matching.from_dict(3, {0: 3, 2: 5, 4: 1}),
              Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})):
        d0 = standard_diagram(m)
        d, moves = inflate(d0, 2, 2, 4, rng)
        keys, cur = [], d0
        for mv in moves:  # the inflation's key after each move
            cur = apply_move(cur, mv)
            keys.append(cur.canonical_key())
        grow = MoveLog(d0.canonical_key(), moves, keys)
        _, shrink = to_standard(d)
        for start, log in ((d0, grow), (d, shrink)):
            text = textio.write_movelog(start, log)
            parsed, _ = textio.read_movelog(text, start)
            assert parsed.moves == log.moves and parsed.keys == log.keys
            assert textio.write_movelog(start, parsed) == text
            kinds.update(line.split()[0] for line in text.splitlines()[2:])
    assert kinds == {"01", "add", "22", "10", "drop"}


def _no_face_records(monkeypatch):
    def refused(self, key):
        raise AssertionError("a Face record was built")

    monkeypatch.setattr(TripleDiagram, "_face", refused)


def test_a_loop_bearing_reduction_log_is_written_and_read_without_records(
        monkeypatch):
    """A face index is its key's rank in the face store, both ways, and
    a loop's canonical key reads its face off the store: the log of a
    reduction that drops loops is written and read, on a fresh copy of
    its input, with ``TripleDiagram._face`` refusing to build a record,
    to the same text, moves and keys."""
    d, _ = inflate(standard_diagram(Matching.from_dict(
        4, {0: 5, 2: 7, 4: 1, 6: 3})), 3, 2, 12, random.Random(3))
    final, log = to_standard(d)
    text = textio.write_movelog(d, log)
    assert {"22", "10", "drop"} <= {line.split()[0]
                                    for line in text.splitlines()[2:]}
    _no_face_records(monkeypatch)
    fresh = TripleDiagram(d.n, d.crossings, None, d.loops,
                          partners=d.partners())
    assert textio.write_movelog(fresh, log) == text
    fresh = TripleDiagram(d.n, d.crossings, None, d.loops,
                          partners=d.partners())
    parsed, end = textio.read_movelog(text, fresh)
    assert parsed == log
    assert end.canonical_key() == final.canonical_key()


def test_negative_face_indices_are_refused(rotation3):
    """A face index in a loops record or a move line counts from 0; a
    negative one is a parse error on its own line, not a face taken from
    the end of the list."""
    d = standard_diagram(rotation3)
    text = textio.write_diagram(d)
    line_no = len(text.splitlines()) + 1
    for record, fid in (("loops -1:2", -1),
                        ("loops 0:1 %d:1" % len(d.faces()), len(d.faces()))):
        with pytest.raises(textio.ParseError) as exc:
            textio.read_diagram(text + record + "\n")
        assert exc.value.line_no == line_no
        assert exc.value.message == "loop face %d out of range" % fid
    d = d.with_loops({d.faces()[-1].key: 1})
    head = "movelog v1\ninitial %s\n" % textio.key_digest(d.canonical_key())
    for line in ("22 -1", "drop -1", "add -1"):
        with pytest.raises(textio.ParseError) as exc:
            textio.read_movelog(head + line + "\n", d)
        assert exc.value.line_no == 3
        assert "face index -1 out of range" in exc.value.message
    # and past the last face
    with pytest.raises(textio.ParseError) as exc:
        textio.read_movelog(head + "drop %d\n" % len(d.faces()), d)
    assert "face index %d out of range" % len(d.faces()) in exc.value.message


def test_01_ports_outside_the_diagram_are_refused():
    """A ``01`` move naming a port outside the diagram, or a side other
    than ``l`` or ``r``, is a parse error on its line, and ``apply_01``
    refuses it, as ``partner`` does the port: ``C0.7`` is no alias of
    C1.1, nor ``C-1.1`` of a slot counted from the end, nor ``x`` of r."""
    d = standard_diagram(Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3}))
    assert d.crossings == (0, 1)
    head = "movelog v1\ninitial %s\n" % textio.key_digest(d.canonical_key())
    for port in ("C9.0", "C0.9", "C-1.1", "C0.7", "B8", "B-1"):
        for line in ("01 %s B1 l" % port, "01 B1 %s r" % port):
            with pytest.raises(textio.ParseError) as exc:
                textio.read_movelog(head + line + "\n", d)
            assert exc.value.line_no == 3
            assert "port %s out of range" % port in exc.value.message
        with pytest.raises(MoveError) as exc:
            apply_01(d, parse_port(port), ('b', 1), 'l')
        assert str(exc.value) == "port %s out of range" % port
        with pytest.raises(KeyError):
            d.partner(parse_port(port))
    with pytest.raises(textio.ParseError) as exc:
        textio.read_movelog(head + "01 B0 C0.3 x\n", d)
    assert "side 'x' is not l or r" in exc.value.message
    with pytest.raises(MoveError, match="side '' is not l or r"):
        apply_01(d, ('b', 0), ('c', 0, 3), '')


def test_tiling_orientation_is_one_letter():
    for letter in ("HV", "", "h"):
        with pytest.raises(textio.ParseError) as exc:
            textio.read_tiling("tiling v1\ndom 0 0 %s\n" % letter)
        assert exc.value.line_no == 2
    tiling = textio.read_tiling("tiling v1\ndom 0 0 V\n")
    assert tiling.dominoes == {(0, 0, False)}


def test_movegraph_format():
    m = tiling_to_diagram(
        enumerate_tilings(Region.rectangle(4, 2))[0]).trace()[0]
    g = enumerate_component(m)
    text = textio.write_movegraph(g)
    lines = text.splitlines()
    assert lines[0] == "movegraph v1"
    assert sum(1 for l in lines if l.startswith("v ")) == 5
    assert all(len(l.split()) == 4 for l in lines if l.startswith("e "))


def test_render_outputs_svg(rotation3):
    d = standard_diagram(rotation3)
    svg = render_diagram(d, RenderSpec(shade_faces=True))
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    looped = d.with_loops({d.faces()[0].key: 2, d.faces()[1].key: 1})
    assert render_diagram(looped).count('stroke="#3a3"') == 3
    t = enumerate_tilings(Region.rectangle(2, 2))[0]
    assert render_tiling(t).startswith("<svg")
    with pytest.raises(ValueError):
        render_diagram(d, RenderSpec(size=-1))


def test_cli_count_and_roundtrip(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text(textio.write_matching(
        Matching.from_dict(3, {0: 3, 2: 5, 4: 1})))
    out = run_cli("count", "--in", str(mfile))
    assert out.returncode == 0 and out.stdout.strip() == "1"
    dfile = tmp_path / "d.txt"
    out = run_cli("standard", "--in", str(mfile), "--out", str(dfile))
    assert out.returncode == 0
    out = run_cli("trace", "--in", str(dfile))
    assert out.returncode == 0
    assert out.stdout == mfile.read_text()


def test_cli_determinism(tmp_path):
    region = tmp_path / "r.txt"
    region.write_text(textio.write_region(Region.rectangle(4, 2)))
    a = run_cli("domino", "enumerate", "--in", str(region))
    b = run_cli("domino", "enumerate", "--in", str(region))
    assert a.returncode == 0 and a.stdout == b.stdout
    assert a.stderr.strip() == "5 tilings"


def test_cli_cluster_seeded(tmp_path):
    region = tmp_path / "r.txt"
    region.write_text(textio.write_region(Region.rectangle(4, 2)))
    til = run_cli("domino", "enumerate", "--in", str(region))
    first = "\n".join(til.stdout.splitlines()[:5]) + "\n"
    tfile = tmp_path / "t.txt"
    tfile.write_text(first)
    dfile = tmp_path / "dd.txt"
    assert run_cli("domino", "dual", "--in", str(tfile),
                   "--out", str(dfile)).returncode == 0
    r1 = run_cli("cluster", "--in", str(dfile), "--walk", "10",
                 "--seed", "3")
    r2 = run_cli("cluster", "--in", str(dfile), "--walk", "10",
                 "--seed", "3")
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert "all_laurent=True" in r1.stdout


def test_cli_reduce_and_minimal(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text(textio.write_matching(
        Matching.from_dict(3, {0: 3, 2: 5, 4: 1})))
    dfile = tmp_path / "d.txt"
    run_cli("standard", "--in", str(mfile), "--out", str(dfile))
    out = run_cli("minimal", "--in", str(dfile))
    assert out.stdout.splitlines()[0] == "minimal"
    sfile = tmp_path / "s.txt"
    lfile = tmp_path / "log.txt"
    out = run_cli("reduce", "--in", str(dfile), "--out", str(sfile),
                  "--log", str(lfile))
    assert out.returncode == 0
    assert lfile.read_text().splitlines()[0] == "movelog v1"


def test_cli_error_is_structured(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("matching v1\nn 2\npair 0 0\n")
    out = run_cli("count", "--in", str(bad))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ")


def test_cli_domino_check_refuses_a_region_without_tilings(tmp_path):
    region = tmp_path / "r.txt"
    region.write_text("region v1\nsq 0 0\n")
    out = run_cli("domino", "check", "--in", str(region))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines() == ["error: region has no domino tiling"]


def test_cli_domino_check_refuses_an_empty_region(tmp_path):
    """An empty region has nothing to tile; it is not disconnected."""
    region = tmp_path / "r.txt"
    region.write_text("region v1\n")
    out = run_cli("domino", "check", "--in", str(region))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines() == ["error: region is empty"]


def test_cli_domino_enumerate_and_dual_refuse_an_empty_region(tmp_path):
    """``enumerate`` agrees with ``check`` and ``dual``: no empty tiling."""
    region = tmp_path / "r.txt"
    region.write_text("region v1\n")
    tiling = tmp_path / "t.txt"
    tiling.write_text("tiling v1\n")
    for args in (("enumerate", "--in", str(region)),
                 ("enumerate", "--in", str(tiling)),
                 ("dual", "--in", str(tiling))):
        out = run_cli("domino", *args)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.splitlines() == ["error: region is empty"]


def test_a_repeated_square_or_domino_is_refused_on_its_line():
    with pytest.raises(textio.ParseError) as exc:
        textio.read_region("region v1\nsq 0 0\nsq 1 0\nsq 0 0\n")
    assert (exc.value.line_no, exc.value.message) \
        == (4, "square 0 0 named twice")
    with pytest.raises(textio.ParseError) as exc:
        textio.read_tiling("tiling v1\ndom 0 0 H\n\ndom 0 0 H\n")
    assert (exc.value.line_no, exc.value.message) \
        == (4, "domino 0 0 H named twice")
    # the same corner with the other orientation overlaps: no exact cover
    with pytest.raises(textio.ParseError, match="not an exact cover"):
        textio.read_tiling("tiling v1\ndom 0 0 H\ndom 0 0 V\n")


def test_cli_domino_refuses_a_repeated_record(tmp_path):
    bad = tmp_path / "bad.txt"
    for text, action, message in (
            ("tiling v1\ndom 0 0 H\ndom 0 0 H\n", "dual",
             "3: domino 0 0 H named twice"),
            ("region v1\nsq 0 0\nsq 1 0\nsq 0 0\n", "check",
             "4: square 0 0 named twice")):
        bad.write_text(text)
        out = run_cli("domino", action, "--in", str(bad))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.splitlines() == ["error: %s:%s" % (bad, message)]


def test_cli_reduce_refuses_a_negative_loop_face(tmp_path, rotation3):
    """Also a face named twice: each is one error line and exit 2."""
    bad = tmp_path / "bad.txt"
    for record, message in (("loops -1:2", "loop face -1 out of range"),
                            ("loops 0:1 0:2", "loop face 0 named twice")):
        bad.write_text(textio.write_diagram(standard_diagram(rotation3))
                       + record + "\n")
        out = run_cli("reduce", "--in", str(bad))
        assert out.returncode == 2
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert lines[0].endswith(message)


def test_cli_refuses_a_port_outside_the_diagram(tmp_path):
    """A slot past 5, a crossing past ``crossings`` or an endpoint past
    2n is one error line on its record, exit 2.  Unchecked, C0.9 failed
    in the kernel with a traceback and C0.7 of two crossings stood for
    C1.1's entry of the partner array."""
    bad = tmp_path / "bad.txt"
    for k, port in ((1, "C0.9"), (2, "C0.7"), (1, "C1.0"), (1, "B2")):
        bad.write_text("triple-diagram v1\nn 1\ncrossings %d\n"
                       "edge %s B1\nloops 0:1\n" % (k, port))
        out = run_cli("minimal", "--in", str(bad))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: %s:4: port %s out of range" % (bad, port)]


def test_cli_refuses_a_port_named_twice(tmp_path):
    """A port on a second ``edge`` line is one error line on that line,
    exit 2, also when the line repeats an edge."""
    bad = tmp_path / "bad.txt"
    for edge in ("B0 C0.2", "B0 C0.0", "C0.0 B0"):
        bad.write_text("triple-diagram v1\nn 1\ncrossings 1\n"
                       "edge B0 C0.0\nedge %s\n" % edge)
        out = run_cli("minimal", "--in", str(bad))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: %s:5: port %s named twice" % (bad, edge.split()[0])]


def test_cli_render_refuses_an_invalid_diagram(tmp_path):
    """render validates a diagram as every other command does: an edge
    line left out, or two edges joining like ports, is one error line and
    exit 2, not a traceback or a tracing error; so is an edge line left
    out beside a ``loops`` record, whose faces need a valid map."""
    bad = tmp_path / "bad.txt"
    head = "triple-diagram v1\nn 3\ncrossings 1\n"
    missing = "B0 C0.2,B1 C0.3,B2 C0.4,B3 C0.5,B4 C0.0"
    cases = [
        (missing, "", "uncovered port B5; uncovered port C0.1"),
        (missing, "loops 0:1\n", "uncovered port B5; uncovered port C0.1"),
        ("B0 C0.2,B1 C0.3,B2 C0.4,B3 C0.5,B4 C0.1,B5 C0.0", "",
         "orientation clash on edge B4 C0.1; "
         "orientation clash on edge B5 C0.0"),
    ]
    for edges, loops, violations in cases:
        bad.write_text(head + "".join("edge %s\n" % e
                                      for e in edges.split(",")) + loops)
        for command in ("render", "trace"):
            out = run_cli(command, "--in", str(bad))
            assert out.returncode == 2 and out.stdout == ""
            assert out.stderr.splitlines() == [
                "error: %s:1: invalid diagram: %s" % (bad, violations)]
