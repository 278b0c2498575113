"""Text formats and the command-line surface."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tricross import (Matching, standard_diagram, Region, enumerate_tilings,
                      tiling_to_diagram, enumerate_component, inflate,
                      to_standard, empty_diagram, reduce_to_minimal,
                      connect_minimal, slide_macro, pattern_template,
                      add_loop, init_cluster, random_walk)
from tricross.cluster import dump_values
from tricross.diagram import TripleDiagram, parse_port, port_str
from tricross.moves import Move, MoveError, MoveLog, apply_01, apply_move
from tricross.reduce import extract_region
from tricross import textio
from tricross.render import render_diagram, render_tiling, RenderSpec

from conftest import all_matchings
from test_golden import floating_diagram, inflation

PKG = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin=None):
    """Run the CLI from this checkout's ``src/`` in a clean environment,
    which keeps the caller's ``PYTHONDONTWRITEBYTECODE`` when it is set."""
    env = {"PYTHONPATH": str(PKG / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return subprocess.run(
        [sys.executable, "-m", "tricross.cli", *args],
        input=stdin, capture_output=True, text=True, cwd=str(PKG), env=env)


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
    """The empty disk's face has no dart; its loops still have a key, (),
    by which a loop is added, and the face is face 0 of texts and logs
    and carries the disk's one cluster variable."""
    e = empty_diagram()
    for d in (add_loop(e, ()), apply_move(e, Move('add', ((),)))):
        assert d.loops == {(): 1}
        text = textio.write_diagram(d)
        assert text == "triple-diagram v1\nn 0\ncrossings 0\nloops 0:1\n"
        assert textio.read_diagram(text).loops == {(): 1}
    state = init_cluster(e)
    assert state.var_names == ('x0',) and state.frozen == {()}
    assert dump_values(state) == "x0 = x0"
    d = e.with_loops({(): 2})
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
    for text in ("movelog v1\n", "movelog v1\ninitial\n",
                 "movelog v1\ninitial \n", "movelog v1\ninitial  \n22 0\n"):
        with pytest.raises(textio.ParseError) as exc:
            textio.read_movelog(text, d)
        assert (exc.value.line_no, exc.value.message) \
            == (2, "missing initial key line")


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
    """Inflation logs (01, add, 22), recorded move by move, and reduction
    logs (22, 10, drop) are written as the replaying reference writes
    them, and read back to the same moves, keys and face indexes."""
    rng = random.Random(8)
    kinds = set()
    for m in (Matching.from_dict(3, {0: 3, 2: 5, 4: 1}),
              Matching.from_dict(4, {0: 5, 2: 7, 4: 1, 6: 3})):
        d0 = standard_diagram(m)
        d, moves = inflate(d0, 2, 2, 4, rng)
        grow = MoveLog(d0.canonical_key())
        grow.record(d0, moves)
        _, shrink = to_standard(d)
        for start, log in ((d0, grow), (d, shrink)):
            text = textio.write_movelog(start, log)
            assert text == reference_movelog(start, log)
            assert textio.read_movelog(text, start)[0] == log
            kinds.update(line.split()[0] for line in text.splitlines()[2:])
    assert kinds == {"01", "add", "22", "10", "drop"}


def reference_face_index(diagram, move):
    """The position in ``diagram.faces()`` of ``move``'s face: the face
    whose darts hold a 2<->2 move's first site dart, or the loop face of
    a ``drop`` or ``add``; None for ``10`` and ``01``.  Found by scanning
    the records of the diagram the move applies to, apart from
    ``face_index``: the reference for the index ``MoveLog.record``
    records."""
    if move.kind == '22':
        dart = ('c',) + tuple(move.data[0])
        return next(i for i, face in enumerate(diagram.faces())
                    if dart in face.darts)
    if move.kind in ('drop', 'add'):
        return [face.key for face in diagram.faces()].index(move.data[0])
    return None


def reference_movelog(initial, log):
    """The replaying writer: the ``movelog v1`` text of ``log``, each
    move applied again from ``initial`` and its face named by
    ``reference_face_index`` on the diagram it applies to, whatever
    indexes the log recorded."""
    out = ["movelog v1", "initial %s" % textio.key_digest(log.initial_key)]
    cur = initial
    for mv in log.moves:
        if mv.kind == '10':
            out.append("10 %d.%d" % mv.data)
        elif mv.kind == '01':
            out.append("01 %s %s %s" % (port_str(mv.data[0]),
                                        port_str(mv.data[1]), mv.data[2]))
        else:
            out.append("%s %d" % (mv.kind, reference_face_index(cur, mv)))
        cur = apply_move(cur, mv)
    return "\n".join(out) + "\n"


def _recorded_logs():
    """(initial diagram, log) from every producer of logs: the reductions
    of seeded inflations, each with free loops to drop; ``connect_minimal``
    between every two 4x3 domino duals, and from the first 4x4 dual to
    every other and back; and a ``slide_macro``."""
    for seed in range(40):
        rng = random.Random(seed)
        n = 4 + seed % 5
        outs = list(range(1, 2 * n, 2))
        rng.shuffle(outs)
        d, _ = inflate(standard_diagram(Matching.from_dict(
            n, dict(zip(range(0, 2 * n, 2), outs)))), 1 + seed % 3,
            1 + seed % 2, 12, rng)
        yield d, reduce_to_minimal(d)[1]
    duals = [tiling_to_diagram(t)
             for t in enumerate_tilings(Region.rectangle(4, 3))]
    for d1 in duals:
        for d2 in duals:
            yield d1, connect_minimal(d1, d2)
    duals = [tiling_to_diagram(t)
             for t in enumerate_tilings(Region.rectangle(4, 4))]
    for d in duals:
        yield duals[0], connect_minimal(duals[0], d)
        yield d, connect_minimal(d, duals[0])
    left, window, _ = pattern_template('b', 2)
    yield left, slide_macro(left, 'b', window, 2)


def test_write_movelog_matches_the_replaying_reference():
    """Each log is written from its recorded face indexes to the bytes
    the replaying reference writes, for every producer of logs."""
    kinds = set()
    for initial, log in _recorded_logs():
        text = textio.write_movelog(initial, log)
        assert text == reference_movelog(initial, log)
        kinds.update(line.split()[0] for line in text.splitlines()[2:])
    assert kinds == {"22", "10", "drop"}


def test_the_reference_catches_indexes_read_after_the_move(monkeypatch):
    """A recorder that reads each face index on the diagram its move
    makes, instead of the one the move applies to, writes another text
    than the replaying reference for every log with a 2<->2 move."""
    def record_after(self, diagram, moves):
        for move in moves:
            diagram = apply_move(diagram, move)
            if move.kind == '22':
                face = diagram.face_index(
                    diagram.face_key(('c',) + tuple(move.data[0])))
            elif move.kind in ('drop', 'add'):
                face = diagram.face_index(move.data[0])
            else:
                face = None
            self.moves.append(move)
            self.keys.append(diagram.canonical_key())
            self.faces.append(face)
        return diagram

    monkeypatch.setattr(MoveLog, "record", record_after)
    tried = differ = 0
    for initial, log in _recorded_logs():
        tried += '22' in log.counts()
        differ += (textio.write_movelog(initial, log)
                   != reference_movelog(initial, log))
    assert differ == tried > 0


def test_write_movelog_refuses_another_initial_diagram():
    """A log is written only from the diagram it starts at: from any
    other, its recorded face indexes would name that diagram's faces."""
    d = inflation(0)
    _, log = reduce_to_minimal(d)
    with pytest.raises(MoveError, match="does not start at this diagram"):
        textio.write_movelog(standard_diagram(d.trace()[0]), log)


def _no_face_records(monkeypatch):
    """Refuse the ``Face`` record view's one builder."""
    def refused(self, index):
        raise AssertionError("a Face record was built")

    monkeypatch.setattr(TripleDiagram, "_record", refused)


def _face_reading_paths():
    """The outputs of every library path that reads faces, on inputs it
    builds afresh: diagram texts with free loops and floating parts,
    written and read back; a cluster state's dump after a walk; 0->1
    insertions and added loops on a loop-bearing diagram (``inflate``);
    the loop-bearing residuals of regions; and the log of a reduction of
    a loop-bearing inflation, written and read back."""
    out = []
    floating = [floating_diagram(seed) for seed in range(12)]
    assert any(d.loops and len(d.walk_label()) < d.crossing_count()
               for d in floating)
    for d in floating + [inflation(seed) for seed in range(3)]:
        text = textio.write_diagram(d)
        out += [text, textio.write_diagram(textio.read_diagram(text))]
    dual = tiling_to_diagram(enumerate_tilings(Region.rectangle(4, 3))[0])
    states = random_walk(init_cluster(dual), 6, random.Random(5))[0]
    out += [dump_values(states[0]), dump_values(states[-1])]
    d = inflation(1)
    grown, moves = inflate(d, 3, 2, 0, random.Random(1))
    assert d.loops and {mv.kind for mv in moves} == {'01', 'add'}
    out.append(textio.write_diagram(grown))
    subs = [extract_region(grown, grown.crossings[:k])[0]
            for k in (len(grown.crossings), 1)]
    assert subs[0].loops
    out += [sub.canonical_key() for sub in subs]
    text = textio.write_movelog(grown, to_standard(grown)[1])
    log, end = textio.read_movelog(text, grown)
    out += [text, log.faces, end.canonical_key()]
    return out


def test_the_library_reads_faces_off_the_store(monkeypatch):
    """Each library path that reads faces reads the face store: with the
    ``Face`` record view refused, each gives what it gave before."""
    want = _face_reading_paths()
    _no_face_records(monkeypatch)
    assert _face_reading_paths() == want


def test_a_loop_bearing_reduction_log_is_written_and_read_without_records(
        monkeypatch):
    """A face index is its key's rank in the face store, both ways, and
    a loop's canonical key reads its face off the store: the log of a
    reduction that drops loops is recorded, written and read, on fresh
    copies of its input, with ``TripleDiagram._record`` refusing to build
    a record, to the text the replaying reference writes (with records,
    before the refusal) and to the same moves, keys and face indexes."""
    d, _ = inflate(standard_diagram(Matching.from_dict(
        4, {0: 5, 2: 7, 4: 1, 6: 3})), 3, 2, 12, random.Random(3))
    final, log = to_standard(d)
    text = reference_movelog(d, log)
    assert {"22", "10", "drop"} <= {line.split()[0]
                                    for line in text.splitlines()[2:]}
    _no_face_records(monkeypatch)
    fresh = TripleDiagram(d.n, d.crossings, None, d.loops,
                          partners=d.partners())
    assert to_standard(fresh)[1] == log
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
