"""Reduce every connected diagram with n <= 3 endpoint pairs at 1 to 3
crossings over the minimum, and with n = 4 at 1 and 2 over it, then a
sweep of seeded inflations at n = 6 to 26, and print a table of each:
diagrams, failures by class, seconds.

    python3 tools/reduce_corpus.py

Each corpus cell runs ``reduce_cell`` of tests/test_reduce.py, the
generator of the tier-1 slice tests over the smallest cells, and the
sweep runs the same ``reduce_replayed`` on each of its reductions, so
every log is replayed the same way: each recorded face index is the one
the replaying diagram reads before the move, its crossing count never
rises and it ends on the diagram the log recorded as its end, the
standard diagram of its strategy.

A sweep cell (seed, draws, n range, shuffle range) draws, from
``random.Random(seed)``, per draw: n, a random matching on n pairs
(perfbench's ``random_matching``), and its standard diagram inflated by
0 to 3 monogons and a number of 2<->2 shuffles in the range; each draw
is reduced under every strategy.  Exits 1 when any reduction fails.
Stdlib only; takes about 4 minutes on a 2-vCPU host, 50 seconds of
them on the n = 4 cells and 50 on the sweep.
"""

import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

from tricross import STRATEGIES, inflate, standard_diagram  # noqa: E402
from test_reduce import reduce_cell, reduce_replayed  # noqa: E402
from workloads import random_matching  # noqa: E402

# (seed, draws, n from, n to, shuffles from, shuffles to)
SWEEP = ((5, 400, 6, 14, 20, 300), (6, 150, 15, 22, 100, 800),
         (7, 300, 15, 26, 100, 1000))


def sweep_cell(seed, draws, lo, hi, s0, s1):
    """Reduce each draw of one sweep cell under every strategy; returns
    the number of reductions and a Counter of the failures."""
    rng = random.Random(seed)
    failures = Counter()
    for _ in range(draws):
        m = random_matching(rng.randint(lo, hi), rng)
        d, _ = inflate(standard_diagram(m), rng.randint(0, 3), 0,
                       rng.randint(s0, s1), rng)
        for strategy in STRATEGIES:
            failed = reduce_replayed(
                d, standard_diagram(m, strategy).canonical_key(), strategy)
            if failed:
                failures[failed] += 1
    return draws * len(STRATEGIES), failures


def main():
    total = Counter()
    print("| n | extra | diagrams | failed | seconds |")
    print("|---|-------|---------:|-------:|--------:|")
    for n, extras in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2, 3)),
                      (4, (1, 2))):
        for extra in extras:
            start = time.perf_counter()
            diagrams, failures = reduce_cell(n, extra)
            total += failures
            print("| %d | +%d | %d | %d | %.1f |"
                  % (n, extra, diagrams, sum(failures.values()),
                     time.perf_counter() - start), flush=True)
    print()
    print("| seed | draws | n | shuffles | reductions | failed | seconds |")
    print("|------|------:|---|----------|-----------:|-------:|--------:|")
    for seed, draws, lo, hi, s0, s1 in SWEEP:
        start = time.perf_counter()
        reductions, failures = sweep_cell(seed, draws, lo, hi, s0, s1)
        total += failures
        print("| %d | %d | %d-%d | %d-%d | %d | %d | %.1f |"
              % (seed, draws, lo, hi, s0, s1, reductions,
                 sum(failures.values()), time.perf_counter() - start),
              flush=True)
    print()
    for text, count in total.most_common():
        print("%d  %s" % (count, text))
    print("%d failed in all" % sum(total.values()))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
