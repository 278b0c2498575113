"""Show that every benchmark check can fail.

    python3 perfbench/selftest.py

Run from the repository root.  Each case feeds a check a correct output,
which must pass, then a deliberately broken one, which must fail: a
corrupted closure vertex, a truncated move log, a wrong badgon verdict
and a wrong cluster exchange.  Two last cases run the cluster workload
through ``run.py``, once with a wrong exchange and once with an exchange
that raises on one walk, and require the failures to be counted and the
exit code to be 1.  Exits 0 when every case behaves.
"""

import contextlib
import dataclasses
import io
import json
import random
import sys

import run

run.load_library()

import tricross as tc  # noqa: E402
from tricross.cluster import lv_add, lv_mul  # noqa: E402

import workloads  # noqa: E402


def expect(name, good, bad):
    ok = good is None and bad is not None
    print("%s %s: correct output -> %s; broken output -> %s"
          % ("PASS" if ok else "FAIL", name, good or "accepted",
             bad or "accepted"))
    return ok


def closure_case():
    region = tc.Region.rectangle(4, 3)
    matching, _ = tc.tiling_to_diagram(tc.enumerate_tilings(region)[0]).trace()
    keys, n_edges, text = workloads.Closure.run((matching, "inclusion"))
    corrupted = set(keys)
    victim = min(corrupted)
    corrupted.remove(victim)
    corrupted.add(victim + "x")
    return expect("closure vertex",
                  workloads.check_closure(region, (keys, n_edges, text)),
                  workloads.check_closure(region, (frozenset(corrupted),
                                                   n_edges, text)))


def reduce_case():
    rng = random.Random(7)
    d0 = tc.standard_diagram(workloads.random_matching(5, rng))
    d, _ = tc.inflate(d0, 2, 1, 4, rng)
    item = ("inflation", d, d.crossing_count() - d0.crossing_count(),
            sum(d.loops.values()))
    text = workloads.Reduce.run(item)
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    return expect("truncated move log", workloads.check_reduce(item, text),
                  workloads.check_reduce(item, truncated))


def oracle_case():
    m = tc.Matching.from_dict(3, {0: 3, 2: 5, 4: 1})
    item = (m, tc.minimal_crossing_count(m) + 1, 1, None)
    output = workloads.Oracle.run_cell(item)
    (key, free), rest = output[0], output[1:]
    return expect("badgon verdict", workloads.check_oracle(item, output),
                  workloads.check_oracle(item, ((key, not free),) + rest))


def wrong_exchange(states, sites):
    """Copy of the walk whose first white exchange stores a*c + b*d
    without dividing by e."""
    states = list(states)
    for i, site in enumerate(sites):
        pre, post = states[i], states[i + 1]
        if pre.diagram.face_by_key(site.face_key).color != 'white':
            continue
        (X, x1), (Y, y1) = site.x, site.y

        def value(crossing, slot):
            return pre.values[pre.diagram.face_of(('c', crossing,
                                                   slot % 6)).key]
        wrong = lv_add(lv_mul(value(X, x1 + 2), value(Y, y1 + 2)),
                       lv_mul(value(X, x1 + 4), value(Y, y1 + 4)))
        f_key = post.diagram.face_of(('c', X, (x1 + 4) % 6)).key
        states[i + 1] = dataclasses.replace(
            post, values={**post.values, f_key: wrong})
        return states
    raise AssertionError("walk has no white exchange")


class WrongCluster(workloads.Cluster):
    def run(self, item):
        states, sites, ok, audit = super().run(item)
        return wrong_exchange(states, sites), sites, ok, audit


def cluster_case():
    wl = workloads.Cluster(3)
    item = wl.items[0]
    states, sites, ok, audit = wl.run(item)
    good = workloads.check_walk(states, sites, item[3])
    bad = workloads.check_walk(wrong_exchange(states, sites), sites, item[3])
    return expect("cluster exchange", good, bad)


class RaisingCluster(workloads.Cluster):
    def run(self, item):
        if item is self.items[-1]:
            raise tc.MoveError("face correspondence is not a bijection")
        return super().run(item)


def run_case(name, cls, want_failed):
    """The whole command with the cluster workload replaced by ``cls``
    must exit 1 with ``want_failed(attempted)`` failed inputs."""
    saved = workloads.WORKLOADS["cluster"]
    workloads.WORKLOADS["cluster"] = cls
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "cluster", "--seed", "3",
                             "--seconds", "0.1", "--trace", "0"])
    finally:
        workloads.WORKLOADS["cluster"] = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    ok = code == 1 and not result["correct"] \
        and result["failed"] == want_failed(result["attempted"])
    print("%s run.py on %s: exit %d, correct %s, failed %d/%d"
          % ("PASS" if ok else "FAIL", name, code, result["correct"],
             result["failed"], result["attempted"]))
    return ok


def cluster_run_case():
    return run_case("a wrong exchange", WrongCluster, lambda n: n)


def raising_run_case():
    # one walk raises on every pass: one failed input
    return run_case("an exchange that raises", RaisingCluster,
                    lambda n: 1)


def main():
    cases = (closure_case, reduce_case, oracle_case, cluster_case,
             cluster_run_case, raising_run_case)
    results = [case() for case in cases]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
