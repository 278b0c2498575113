"""Close the duals of two large domino rectangles and check each vertex
count against Kasteleyn's and Temperley-Fisher's product formula.

    python3 tools/closure_scale.py

For the all-horizontal tilings of the 6x6 and 8x5 rectangles, built
directly (``enumerate_tilings`` refuses regions over 36 squares), it runs
``enumerate_component`` on the dual's trace matching.  Domino flips and
2<->2 moves correspond, so the component has one vertex per tiling:
6,728 and 14,824.  Each rectangle runs in a fresh child process, so its
peak RSS is its own: one line per rectangle with the vertex count, the
formula's count, the seconds ``enumerate_component`` took and the
child's peak RSS.  Exits 1 when a count differs.  Stdlib only; takes
about 8 seconds on a 2-vCPU host.
"""

import math
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from tricross import (Region, Tiling, enumerate_component,  # noqa: E402
                      tiling_to_diagram)

RECTANGLES = ((6, 6), (8, 5))


def kasteleyn(w, h):
    """Domino tilings of the w x h rectangle: the product over
    1 <= j <= ceil(w/2), 1 <= k <= ceil(h/2) of
    4 cos^2(pi j / (w + 1)) + 4 cos^2(pi k / (h + 1))."""
    count = math.prod(4 * math.cos(math.pi * j / (w + 1)) ** 2
                      + 4 * math.cos(math.pi * k / (h + 1)) ** 2
                      for j in range(1, (w + 1) // 2 + 1)
                      for k in range(1, (h + 1) // 2 + 1))
    return round(count)


def close(w, h):
    """(vertices, seconds, peak RSS in MiB) of the w x h dual's closure,
    in this process."""
    tiling = Tiling(Region.rectangle(w, h),
                    [(x, y, True) for x in range(0, w, 2) for y in range(h)])
    matching, _ = tiling_to_diagram(tiling).trace()
    t0 = time.perf_counter()
    size = enumerate_component(matching).size()
    seconds = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return size, seconds, peak


def main():
    failed = 0
    spawn = multiprocessing.get_context("spawn")
    for w, h in RECTANGLES:
        with spawn.Pool(1) as pool:
            size, seconds, peak = pool.apply(close, (w, h))
        want = kasteleyn(w, h)
        failed += size != want
        print("%dx%d  vertices %d  kasteleyn %d  %s  %.2f s  peak %.1f MiB"
              % (w, h, size, want, "ok" if size == want else "MISMATCH",
                 seconds, peak))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
