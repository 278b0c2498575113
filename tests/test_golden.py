"""Byte-identity pins for the text the library writes.

Each digest below fixes output bytes that other files depend on: the
``movegraph v1`` text of two domino duals, the canonical keys of every
connected diagram with n <= 2 at the minimal crossing count and one
above, and the canonical key, diagram text and ``movelog v1`` text of
seeded inflations that carry free loops (so the loop part of the key,
loop placement across 2<->2 moves and the ``drop`` lines are covered).
Floating components are pinned by key, labels, diagram text and
``is_connected`` of inflated islands (groups of up to 21 crossings, so
the string order of the floating codes differs from int order), and
``validate()`` by its exact lists over a seeded corpus of mostly
nonplanar port pairings.
A change to the move engine or to the key that keeps its formats must
leave every digest unchanged.
"""

import hashlib
import random

import pytest

from tricross import (Matching, TripleDiagram, enumerate_component,
                      enumerate_connected_diagrams, inflate,
                      minimal_crossing_count, reduce_to_minimal,
                      standard_diagram)
from tricross import textio

from conftest import all_matchings, dual_matching


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def movegraph_digest(w, h):
    return sha(textio.write_movegraph(enumerate_component(dual_matching(w, h))))


def connected_key_digests():
    """{(pairs, extra): (count, digest of the sorted keys)} for n <= 2."""
    out = {}
    for n in range(3):
        for m in all_matchings(n):
            k = minimal_crossing_count(m)
            for extra in (0, 1):
                keys = sorted(enumerate_connected_diagrams(m, k + extra))
                out[(m.pairs, extra)] = (len(keys), sha("\n".join(keys)))
    return out


def inflation(seed):
    """A seeded inflation with 1-3 bumps, 1-3 free loops and 2<->2 noise."""
    rng = random.Random(seed)
    n = 3 + seed % 4
    outs = [2 * i + 1 for i in range(n)]
    rng.shuffle(outs)
    m = Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))
    d, _ = inflate(standard_diagram(m), 1 + seed % 3, 1 + seed // 3 % 3,
                   rng.randint(2, 8), rng)
    return d


def movelog_digest(seed):
    d = inflation(seed)
    _, log = reduce_to_minimal(d)
    return sha("\n".join([d.canonical_key(), textio.write_diagram(d),
                          textio.write_movelog(d, log)]))


MOVEGRAPH = {
    (4, 3): "7cc79b3d45c30fa4be16606285a4d38f880f15e093a35f8d43dd682144a0e103",
    (6, 4): "8338d91afae5c74cf08f4b7064f73280f9d813484dad02e26c583f74e6077717",
}

CONNECTED_KEYS = {
    ((), 0): (1,
        "628f0c5b646cfedbbcec896bb69bd1711064af39327a31efd2480cce154c6c7d"),
    ((), 1): (0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (((0, 1),), 0): (1,
        "a5b814b25ecffb80a436baa55d16c32c6573d3e885032db77a16e3ae1622932f"),
    (((0, 1),), 1): (5,
        "dc23657d208b907301228c841a1fff71be64bc5b1f9b5affe558b2fa899d6bcf"),
    (((0, 1), (2, 3)), 0): (1,
        "e35a9599c9046c38a34cfd7f1052a3179194f425bd315d3e1ff4b9f7080c7201"),
    (((0, 1), (2, 3)), 1): (12,
        "94c3e4fcebce086433d684ebe5c6004c9525db9b2c90cb7f6fac959e741dfeb8"),
    (((0, 3), (2, 1)), 0): (1,
        "4a43a7efcc1e652077f363eea7a53913036cfed111a834cde14ba66205caf2fc"),
    (((0, 3), (2, 1)), 1): (12,
        "3e257739f4f71f9c4bf5e196f337e74639278ec34de2cc4803e58a8a18eed24e"),
}

MOVELOGS = [
    "72da43c5defc280793e24bb5641cb73afa54267687d7e6fbe7d725139b6903f7",
    "d1caecd2ae177489971cdf536fad2274b6c53c9c507a5f315ec39189ea323a08",
    "1529b7dee850b3b27cd655acd993c422da4b6b4f24b097048303fab3cbfd8474",
    "dbdf0d17ddcebf9194bef5599d48193a246dec3bfa76b6a29a71c15a8e2d6fa3",
    "7577ce38ffe919cecac89866c0f487c02b773e2b3f823e8590ebe01224c17ca8",
    "8aaf3da9716ba305929e0f9abab56a4dd37d6554e7280893bac17b22e14abfc2",
    "704c5a0b00737cd7ef93aa16855c5e4a68cf5f23cc07ac61dbe7c9fa59950a58",
    "ab351645129593cb0938203acd2205a7515665f856932fd662b1943c0065f7f5",
    "713dfa637c8893e42d947dd7d5625bdc185ae5198008f348a847705c4a0bf080",
    "0d29db5386e24934bc121aa90869e6f4d7674ae90fde237432559e0eac345899",
    "01c3ce0b724503a256d6c32ed834f351d6f5a44083ec132e92ca65e3be5fb2f2",
    "26856cad8cd7366cd35013b29f2784ea965236b6a8fb174f5c06ac09ef332d14",
    "83d2f5150ad1d80856ec08da04d98766138aee6abc178e30f1c2f84dd7255799",
    "6710497333a611adaf46bd7e8026cc8bb93f9a85b1a90482a510fc599b408b17",
    "e8963adcd0879a98ed441a3f4ca35ac8ce721b09b5cdad85a74a0fc3f203bf10",
    "eb61ca6efd51acbe8c8fa8ff825dc8654ec7e28c668483ad21064e4b062d8b15",
    "deb76f2ccfc3fe570e36803e50ecfae237d61494c37b59b8c389c43ddc64656c",
    "4e5127a800d69f41ad7766be551c90a17e984c239649756b928f90afb853ad62",
    "29701484d5abfd05c105e8e188eeb402511d6160f035dd26a0d294445e105d3c",
    "a09e401ddc19f73436ab0655c56f92eebef029e2085c5d7f9e5e0e1de8d06379",
]

# a floating crossing with three petals: the key's floating-component part
ISLAND_KEY = "n=0\x1f\x1fC0.0-C0.1;C0.2-C0.5;C0.3-C0.4\x1f"


@pytest.mark.parametrize("w,h", sorted(MOVEGRAPH))
def test_movegraph_text_pinned(w, h):
    assert movegraph_digest(w, h) == MOVEGRAPH[(w, h)]


def test_connected_diagram_keys_pinned():
    assert connected_key_digests() == CONNECTED_KEYS


def test_inflation_movelogs_pinned():
    got = [movelog_digest(seed) for seed in range(len(MOVELOGS))]
    assert got == MOVELOGS
    drops = sum(sum(inflation(seed).loops.values())
                for seed in range(len(MOVELOGS)))
    assert drops >= len(MOVELOGS)


def island():
    return TripleDiagram.from_edge_list(
        0, [7], [(('c', 7, 1), ('c', 7, 0)), (('c', 7, 3), ('c', 7, 4)),
                 (('c', 7, 5), ('c', 7, 2))])


def test_floating_component_key_pinned():
    assert island().canonical_key() == ISLAND_KEY


def side_by_side(parts, rng):
    """The parts as one diagram (free loops left off), crossing ids
    scrambled; at most one part has boundary endpoints."""
    total = sum(len(p.crossings) for p in parts)
    ids = iter(rng.sample(range(3 * total), total))
    crossings, edges = [], []
    for p in parts:
        new = {c: next(ids) for c in p.crossings}
        crossings += new.values()

        def rename(port):
            return port if port[0] == 'b' else ('c', new[port[1]], port[2])

        edges += [(rename(a), rename(b)) for a, b in p.edge_list()]
    return TripleDiagram.from_edge_list(max(p.n for p in parts), crossings,
                                        edges)


def floating_diagram(seed):
    """An inflated island alone (seed % 3 == 0), beside a standard
    diagram (1) or beside a second inflated island (2), then inflated
    again with 0-2 bumps, 0-2 free loops and 2<->2 noise."""
    rng = random.Random(seed)
    parts = [inflate(island(), rng.randint(0, 14), 0, rng.randint(0, 6),
                     rng)[0]]
    if seed % 3 == 1:
        n = rng.randint(1, 3)
        outs = [2 * i + 1 for i in range(n)]
        rng.shuffle(outs)
        parts.append(standard_diagram(
            Matching.from_dict(n, dict(zip(range(0, 2 * n, 2), outs)))))
    elif seed % 3 == 2:
        parts.append(inflate(island(), rng.randint(0, 4), 0,
                             rng.randint(0, 3), rng)[0])
    d = side_by_side(parts, rng)
    return inflate(d, rng.randint(0, 2), rng.randint(0, 2),
                   rng.randint(0, 4), rng)[0]


def floating_text(d):
    key, label = d.canonical_form()
    return "\n".join([key, repr(sorted(label.items())),
                      textio.write_diagram(d), repr(d.is_connected())])


# key, labels, diagram text and is_connected of 30 floating diagrams, by
# seed % 3: an island alone, beside a standard diagram, two islands
FLOATING = [
    "97469b9394056cf530b6cd2dbb43627bc234191737377a75a49f1a8609794d90",
    "46e6dc9eb8561f1c5b83104deb43825dd0c8501e9370117904bba4e40ce2783e",
    "923e9087bbc2df8cf3f76bab34a44086c7bfb017ba2a859ee810ee9f9595df92",
]


def test_floating_components_pinned():
    texts = [[], [], []]
    for seed in range(30):
        d = floating_diagram(seed)
        assert d.validate() == []
        texts[seed % 3].append(floating_text(d))
    assert [sha("\n".join(t)) for t in texts] == FLOATING
    floats = [t.split("\x1f")[2] for group in texts for t in group]
    # groups of 11 or more crossings, where "C10.x" sorts before "C2.x"
    assert sum("C10." in f for f in floats) >= 5
    assert sum("|" in f for f in floats) >= 5  # two floating groups
    assert sum(bool(t.split("\x1f")[3].split("\n")[0])
               for group in texts for t in group) >= 10  # free loops


def random_pairing(rng):
    """An orientation-respecting pairing of the ports of n <= 3 endpoint
    pairs and k <= 4 crossings, most of them not planar."""
    n, k = rng.randint(0, 3), rng.randint(1, 4)
    ids = sorted(rng.sample(range(2 * k), k))
    sources = ([('b', i) for i in range(0, 2 * n, 2)]
               + [('c', c, s) for c in ids for s in (1, 3, 5)])
    sinks = ([('b', i) for i in range(1, 2 * n, 2)]
             + [('c', c, s) for c in ids for s in (0, 2, 4)])
    rng.shuffle(sinks)
    return TripleDiagram.from_edge_list(n, ids, list(zip(sources, sinks)))


# validate(), is_connected and the key of 3000 seeded pairings
PAIRINGS = ("de7aa0bde8111a63948b3c3e975e7239"
            "eccd91fca83b5700d3f3f07097e4829f")


def test_pairing_validation_pinned():
    rng = random.Random(5)
    texts = []
    invalid = 0
    for _ in range(3000):
        d = random_pairing(rng)
        violations = d.validate()
        invalid += bool(violations)
        texts.append("\n".join([repr(violations), repr(d.is_connected()),
                                d.canonical_key()]))
    assert sha("\n".join(texts)) == PAIRINGS
    assert 1000 < invalid < 2900
