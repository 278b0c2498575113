"""Print sha256 digests of output bytes a speed-up must not change.

``tools/output_digests.txt`` holds the expected lines; CI compares them:

    python3 tools/output_digests.py | diff tools/output_digests.txt -

A change that alters one of these outputs on purpose updates that file
and says why.

* ``oracle``: the benchmark's oracle sweep, every (key, badgon-free)
  pair of its 51 cells;
* ``reduce-<seed>``: every move log, or error text, of the benchmark's
  reduce workload for seeds 1 and 2;
* ``svg``: ``render_diagram`` of 20 inflations with closed strands and
  free loops (``floating_diagram`` of the golden tests);
* ``validate``: ``validate()`` of the golden tests' 3,000 seeded port
  pairings;
* ``cluster``: the sites, final values and audit of every walk of the
  benchmark's cluster workload for seed 1;
* ``cluster-dump``: ``dump_values`` of every state of those walks, the
  one cluster output that names faces by face index;
* ``cluster-2024``: as ``cluster``, for the held-out seed 2024;
* ``closure``: the ``movegraph v1`` text of the 6x4 and 6x5 domino
  duals' move graphs;
* ``slide``: the ``movelog v1`` texts, concatenated, of ``slide_macro``
  for patterns a, b and c at 1-3 repeats: the paths ``_search`` finds;
* ``components``: the ``movelog v1`` texts of ``reduce_to_minimal``,
  under each strategy, of every vertex of the move-graph components of
  40 random matchings each for n=7 and n=8 (rng seed 7; the components
  have at most 70 vertices).  Unlike the reduce workload, these inputs
  reach ``_remove_double``'s recursion: 22 of its depth-1
  ``straighten`` calls make moves;
* ``connect``: the ``movelog v1`` texts of ``connect_minimal`` from the
  root of each move-graph component to every vertex and back, for 120
  random n=6 matchings (rng seed 6; 314 vertices, at most 70 in one
  component);
* ``connect-2024``: as ``connect``, held out: the root of each move-graph
  component to every vertex and back, for 40 random matchings each for
  n=7 and n=8 (rng seed 2024; 628 vertices, 1,256 logs).

Stdlib only; takes about 20 seconds.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

from tricross import (STRATEGIES, connect_minimal,  # noqa: E402
                      enumerate_component, reduce_to_minimal, textio)
from tricross.cluster import dump_values  # noqa: E402
from tricross.reduce import pattern_template, slide_macro  # noqa: E402
from tricross.render import render_diagram  # noqa: E402
import workloads  # noqa: E402
from test_golden import (dual_matching, floating_diagram,  # noqa: E402
                         random_pairing)


def sha(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def reduce_texts(seed):
    texts = []
    for item in workloads.Reduce(seed).items:
        try:
            texts.append(workloads.Reduce.run(item))
        except Exception as exc:  # the reducer's known failures
            texts.append("%s: %s" % (type(exc).__name__, exc))
    return texts


def cluster_sha(walks):
    """The sites, final values and audit of each cluster walk."""
    return sha(repr((sites, ok, sorted(states[-1].values.items()), audit))
               for states, sites, ok, audit in walks)


def connect_texts(matchings):
    """The logs of ``connect_minimal`` from the root of each matching's
    move-graph component to every vertex and back."""
    texts = []
    for m in matchings:
        graph = enumerate_component(m)
        root = graph.vertices[graph.root]
        for d in graph.vertices.values():
            texts.append(textio.write_movelog(root, connect_minimal(root, d)))
            texts.append(textio.write_movelog(d, connect_minimal(d, root)))
    return texts


def main():
    oracle = workloads.Oracle(1)
    print("oracle", sha([repr(oracle.run(item)) for item in oracle.items]))
    for seed in (1, 2):
        print("reduce-%d" % seed, sha(reduce_texts(seed)))
    print("svg", sha(render_diagram(floating_diagram(seed))
                     for seed in range(20)))
    rng = random.Random(5)
    print("validate", sha(repr(random_pairing(rng).validate())
                          for _ in range(3000)))
    cluster = workloads.Cluster(1)
    walks = list(map(cluster.run, cluster.items))
    print("cluster", cluster_sha(walks))
    print("cluster-dump", sha(dump_values(state) for states, _, _, _ in walks
                              for state in states))
    cluster = workloads.Cluster(2024)
    print("cluster-2024", cluster_sha(map(cluster.run, cluster.items)))
    print("closure", sha(textio.write_movegraph(enumerate_component(
        dual_matching(w, h))) for w, h in ((6, 4), (6, 5))))
    logs = []
    for pattern in "abc":
        for repeats in (1, 2, 3):
            left, window, _ = pattern_template(pattern, repeats)
            logs.append(textio.write_movelog(
                left, slide_macro(left, pattern, window, repeats)))
    print("slide", sha(["".join(logs)]))
    rng = random.Random(7)
    matchings = [workloads.random_matching(n, rng)
                 for n in (7, 8) for _ in range(40)]
    print("components", sha(
        textio.write_movelog(d, reduce_to_minimal(d, strategy)[1])
        for m in matchings
        for d in enumerate_component(m).vertices.values()
        for strategy in STRATEGIES))
    rng = random.Random(6)
    print("connect", sha(connect_texts(
        workloads.random_matching(6, rng) for _ in range(120))))
    rng = random.Random(2024)
    print("connect-2024", sha(connect_texts(
        workloads.random_matching(n, rng) for n in (7, 8) for _ in range(40))))


if __name__ == "__main__":
    main()
