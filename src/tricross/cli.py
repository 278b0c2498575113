"""Command-line interface.

Every command is a thin adapter: parse inputs, call one library
operation, serialize.  Outputs are byte-deterministic for fixed inputs,
flags and seed.  Exit status 0 on success; parse and validation errors
print one structured line to stderr and exit 2.
"""

import argparse
import random
import sys

from .diagram import DiagramError
from .standard import standard_diagram, minimal_crossing_count, STRATEGIES
from .moves import find_badgons, is_minimal, MoveError
from .reduce import (to_standard, connect_minimal, ReductionError)
from .movegraph import (enumerate_component, brute_force_minimal,
                        GuardExceeded)
from .domino import (enumerate_tilings, tiling_to_diagram, find_flips,
                     flips_commute_with_22)
from .cluster import init_cluster, random_walk, laurent_audit, dump_values
from .render import RenderSpec, render_diagram, render_tiling
from . import textio


class CliError(Exception):
    pass


def _read(path):
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    try:
        with open(path) as fh:
            return fh.read(), path
    except OSError as exc:
        raise CliError("%s: %s" % (path, exc.strerror))


def _write(path, data):
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w") as fh:
            fh.write(data)


def _load_diagram(path):
    return textio.read_diagram(*_read(path))  # refuses an invalid diagram


def _load_matching(path):
    text, name = _read(path)
    return textio.read_matching(text, name)


def _load_region_or_tiling(path, ascii_art=False):
    text, name = _read(path)
    if ascii_art:
        if any(ch.isalpha() for ch in text):
            return None, textio.read_ascii_tiling(text)
        return textio.read_ascii_region(text), None
    header = text.splitlines()[0] if text.splitlines() else ""
    if header == "region v1":
        return textio.read_region(text, name), None
    if header == "tiling v1":
        return None, textio.read_tiling(text, name)
    raise CliError("%s:1: expected a region or tiling file" % name)


def cmd_standard(args):
    m = _load_matching(args.infile)
    d = standard_diagram(m, args.strategy)
    _write(args.out, textio.write_diagram(d))
    return 0


def cmd_trace(args):
    d = _load_diagram(args.infile)
    matching, loops = d.trace()
    _write(args.out, textio.write_matching(matching))
    for visits in loops:
        print("loop %s" % (" ".join("C%d" % c for c in visits) or "free"),
              file=sys.stderr)
    return 0


def cmd_count(args):
    m = _load_matching(args.infile)
    print(minimal_crossing_count(m, args.basepoint))
    return 0


def cmd_reduce(args):
    d = _load_diagram(args.infile)
    final, log = to_standard(d, args.strategy)
    _write(args.out, textio.write_diagram(final))
    if args.log:
        _write(args.log, textio.write_movelog(d, log))
    counts = log.counts()
    print("reduced: %d moves (22=%d 10=%d drop=%d)"
          % (len(log), counts.get('22', 0), counts.get('10', 0),
             counts.get('drop', 0)), file=sys.stderr)
    return 0


def cmd_minimal(args):
    d = _load_diagram(args.infile)
    badgons = find_badgons(d)
    print("minimal" if is_minimal(d) else "not-minimal")
    for b in badgons:
        print("badgon %s %s" % (b.kind, " ".join(str(x) for x in b.detail)))
    return 0


def cmd_connect(args):
    if len(args.infile) != 2:
        raise CliError("connect needs exactly two --in files")
    d1 = _load_diagram(args.infile[0])
    d2 = _load_diagram(args.infile[1])
    log = connect_minimal(d1, d2)
    _write(args.out, textio.write_movelog(d1, log))
    return 0


def cmd_enumerate(args):
    m = _load_matching(args.infile)
    graph = enumerate_component(m, args.strategy)
    _write(args.out, textio.write_movegraph(graph))
    try:
        oracle = brute_force_minimal(m)
    except GuardExceeded as exc:
        print("oracle skipped: %s" % exc, file=sys.stderr)
    else:
        print("component=%d oracle=%d equal=%s"
              % (graph.size(), len(oracle), set(graph.vertices) == oracle),
              file=sys.stderr)
    return 0


def cmd_domino(args):
    region, tiling = _load_region_or_tiling(args.infile, args.ascii)
    guard = args.guard if args.guard is not None else 36
    if args.action == "enumerate":
        target = region if region is not None else tiling.region
        tilings = enumerate_tilings(target, guard)
        out = []
        for t in tilings:
            out.append(textio.write_tiling(t))
        _write(args.out, "".join(out))
        print("%d tilings" % len(tilings), file=sys.stderr)
    elif args.action == "dual":
        if tiling is None:
            raise CliError("dual needs a tiling file")
        d = tiling_to_diagram(tiling)
        _write(args.out, textio.write_diagram(d))
    elif args.action == "check":
        target = region if region is not None else tiling.region
        tilings = enumerate_tilings(target, guard)
        if not tilings:
            raise CliError("region has no domino tiling")
        keys = set()
        matchings = set()
        for t in tilings:
            d = tiling_to_diagram(t)
            keys.add(d.canonical_key())
            matchings.add(d.trace()[0])
            for site in find_flips(t):
                if not flips_commute_with_22(t, site):
                    print("flip mismatch at %s" % (site,))
                    return 1
        m = matchings.pop()
        component = enumerate_component(m)
        print("tilings=%d matchings=%d duals=%d component=%d flips-ok=true"
              % (len(tilings), 1 + len(matchings), len(keys),
                 component.size()))
    else:
        raise CliError("unknown domino action %r" % args.action)
    return 0


def cmd_cluster(args):
    d = _load_diagram(args.infile)
    state = init_cluster(d)
    rng = random.Random(args.seed)
    states, sites, ok = random_walk(state, args.walk, rng)
    report = laurent_audit(states)
    print("walk=%d all_laurent=%s all_positive=%s max_terms=%d"
          % (len(states) - 1, ok, report["all_positive"],
             report["max_terms"]))
    _write(args.out, dump_values(states[-1]) + "\n")
    return 0


def cmd_render(args):
    spec = RenderSpec(size=args.size, stroke=args.stroke,
                      arrowheads=not args.no_arrows,
                      shade_faces=args.faces, iterations=args.iters)
    text, name = _read(args.infile)
    header = text.splitlines()[0] if text.splitlines() else ""
    if header == "triple-diagram v1":
        d = textio.read_diagram(text, name)
        _write(args.out, render_diagram(d, spec))
    elif header == "tiling v1":
        t = textio.read_tiling(text, name)
        _write(args.out, render_tiling(t, spec))
    else:
        raise CliError("%s:1: expected a diagram or tiling file" % name)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tricross",
        description="Construct, rewrite and inspect triple-crossing "
                    "diagrams in the disk.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, infile="--in", out=True):
        p.add_argument(infile, dest="infile", default="-",
                       help="input file ('-' for stdin)")
        if out:
            p.add_argument("--out", default=None,
                           help="output file (default stdout)")

    p = sub.add_parser("standard", help="build the standard diagram")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="inclusion")
    p.set_defaults(func=cmd_standard)

    p = sub.add_parser("trace", help="matching and loop report")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("count", help="minimal crossing count")
    common(p, out=False)
    p.add_argument("--basepoint", type=int, default=0)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("reduce", help="reduce to the standard diagram")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="inclusion")
    p.add_argument("--log", default=None, help="write the move log here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("minimal", help="minimality and badgon report")
    common(p, out=False)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("connect", help="2<->2 log between minimal diagrams")
    p.add_argument("--in", dest="infile", action="append", default=[],
                   help="give twice: the two diagrams")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("enumerate", help="move-graph component + oracle")
    common(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="inclusion")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("domino", help="tilings and dual diagrams")
    p.add_argument("action", choices=["enumerate", "dual", "check"])
    common(p)
    p.add_argument("--ascii", action="store_true",
                   help="input is ASCII art ('#' region / lettered tiling)")
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=cmd_domino)

    p = sub.add_parser("cluster", help="Laurent audit of a random walk")
    common(p)
    p.add_argument("--walk", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("render", help="SVG of a diagram or tiling")
    common(p)
    p.add_argument("--size", type=int, default=480)
    p.add_argument("--stroke", type=float, default=2.0)
    p.add_argument("--no-arrows", action="store_true")
    p.add_argument("--faces", action="store_true")
    p.add_argument("--iters", type=int, default=200)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, textio.ParseError, DiagramError, MoveError,
            ReductionError, GuardExceeded, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
