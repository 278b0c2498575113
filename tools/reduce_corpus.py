"""Reduce every connected diagram with n <= 3 endpoint pairs at 1 to 3
crossings over the minimum, and with n = 4 at 1 and 2 over it, and
print a table of the cells: diagrams, failures by class, seconds.

    python3 tools/reduce_corpus.py

Each cell runs ``reduce_cell`` of tests/test_reduce.py, the generator of
the tier-1 slice tests over the smallest cells, so every log is replayed
the same way: its crossing count never rises and it ends on the
standard diagram.  Exits 1 when any diagram fails.  Stdlib only;
takes about 7 minutes, 1.6 of them on the n = 4 cells.
"""

import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_reduce import reduce_cell  # noqa: E402


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
    for text, count in total.most_common():
        print("%d  %s" % (count, text))
    print("%d failed in all" % sum(total.values()))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
