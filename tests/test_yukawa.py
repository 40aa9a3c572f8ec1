"""Tadpole enumeration, the pairing algorithm, the edge order, the explicit
bijection onto connected diagrams, vertex graphs, and the series identities."""

from fractions import Fraction
import random
import re
import sys

import pytest

from chordlab import checks, fps, yukawa
from chordlab.bijections import RootShareTriple, nabla, nabla_inv
from chordlab.chord import ChordDiagram, enumerate_diagrams
from chordlab.gfseries import connected_series
from chordlab.yukawa import (
    LEG_END,
    QQEDVertexGraph,
    TadpoleGraph,
    X_TADPOLE,
    composed_two_connected_kernel,
    diagram_to_tadpole,
    enumerate_tadpoles,
    enumerate_vertex_graphs,
    green_identities,
    proper_green_function_table,
    psi,
    psi_inv,
    psi_order,
    qqed_primitive,
    tadpole_to_diagram,
    vacuum_series,
    vertex_graph_to_diagram,
)
from oracles import places_by_root_share, split_tadpole, tadpole_by_nabla, tadpole_is_1pi

TADPOLE_COUNTS = {1: 1, 2: 1, 3: 4, 4: 27}


def connected_diagrams(n):
    return [d for d in enumerate_diagrams(n) if d.is_connected()]


def marked_tadpoles(loops):
    """(t2, d) with d a vertex (the leg-end mark is exercised separately)."""
    for t in enumerate_tadpoles(loops):
        for d in sorted(t.vertices):
            yield t, d


@pytest.mark.parametrize("loops", [1, 2, 3, 4])
def test_tadpole_counts(loops):
    found = enumerate_tadpoles(loops)
    assert len(found) == TADPOLE_COUNTS[loops]
    for t in found:
        assert t.boson_count == loops
        assert t.is_one_particle_irreducible()


def test_tadpole_guard(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_tadpoles(5)
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    assert len(enumerate_tadpoles(2)) == 1
    monkeypatch.setenv("CHORDLAB_MAX_N", "four")
    with pytest.raises(ValueError, match="CHORDLAB_MAX_N"):
        enumerate_tadpoles(2)
    monkeypatch.delenv("CHORDLAB_MAX_N")


def test_tadpole_count_at_five_loops_behind_flag(monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    assert len(enumerate_tadpoles(5)) == 248


def test_literal_roundtrip():
    for t in enumerate_tadpoles(3):
        assert TadpoleGraph.from_literal(t.to_literal()) == t
    assert X_TADPOLE.to_literal() == "loops: (0) ; bosons:  ; leg: 0"


def test_literal_roundtrip_with_negative_vertex_names():
    t = TadpoleGraph({0: -1, -1: -2, -2: 0}, {-1: -2, -2: -1}, 0)
    assert t.to_literal() == "loops: (0 -1 -2) ; bosons: -2--1 ; leg: 0"
    back = TadpoleGraph.from_literal(t.to_literal())
    assert (back.succ, back.boson, back.leg) == (t.succ, t.boson, t.leg)


def test_tadpole_validation():
    with pytest.raises(ValueError):
        TadpoleGraph({0: 0}, {}, 7)  # leg is not a vertex
    with pytest.raises(ValueError):
        TadpoleGraph({0: 1, 1: 1}, {1: 0}, 0)  # successor map not a permutation
    with pytest.raises(ValueError):
        TadpoleGraph({0: 0, 1: 1, 2: 2}, {1: 1, 2: 2}, 0)  # boson fixed points
    with pytest.raises(ValueError):
        TadpoleGraph({0: 0, 1: 1, 2: 2}, {1: 2}, 0)  # boson not an involution
    disconnected = TadpoleGraph({0: 0, 1: 2, 2: 1}, {1: 2, 2: 1}, 0)
    assert not disconnected.is_connected()
    with pytest.raises(ValueError):
        disconnected.canonical_signature()
    with pytest.raises(ValueError):
        disconnected.canonical()


DISCONNECTED = "loops: (0)(1 2) ; bosons: 1-2 ; leg: 0"


def test_disconnected_tadpole_equality_never_raises():
    t = TadpoleGraph.from_literal(DISCONNECTED)
    assert t == t and t != X_TADPOLE and X_TADPOLE != t
    assert t not in [X_TADPOLE] and t in [X_TADPOLE, t]
    assert isinstance(hash(t), int) and len({t, X_TADPOLE}) == 2


def test_tadpole_equality_is_reflexive():
    literals = [DISCONNECTED, "loops: (0 1 2)(3 4) ; bosons: 1-2, 3-4 ; leg: 0"]
    for t in [*map(TadpoleGraph.from_literal, literals), *enumerate_tadpoles(3)]:
        assert t == t and not t != t


def test_a_disconnected_tadpole_equals_no_connected_one():
    # the leg's component of the second is the connected 2-loop tadpole
    connected = TadpoleGraph.from_literal("loops: (0 1 2) ; bosons: 1-2 ; leg: 0")
    for literal in (DISCONNECTED, "loops: (0 1 2)(3 4) ; bosons: 1-2, 3-4 ; leg: 0"):
        t = TadpoleGraph.from_literal(literal)
        assert not t.is_connected()
        assert all(t != s and s != t for loops in (1, 2, 3) for s in enumerate_tadpoles(loops))
        assert t != connected and t not in {connected}


def test_tadpole_hash_agrees_with_equality():
    # the same maps built in another order, and a connected tadpole renamed
    t = TadpoleGraph.from_literal(DISCONNECTED)
    same = TadpoleGraph({2: 1, 1: 2, 0: 0}, {2: 1, 1: 2}, 0)
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    for s in enumerate_tadpoles(3):
        renamed = TadpoleGraph({v + 5: w + 5 for v, w in s.succ.items()},
                               {v + 5: w + 5 for v, w in s.boson.items()}, s.leg + 5)
        assert s == renamed and hash(s) == hash(renamed)


def test_canonical_signature_identifies_relabelings():
    t = enumerate_tadpoles(3)[2]
    shuffled = TadpoleGraph(
        {v * 7 + 3: w * 7 + 3 for v, w in t.succ.items()},
        {v * 7 + 3: w * 7 + 3 for v, w in t.boson.items()},
        t.leg * 7 + 3,
    )
    assert shuffled == t
    assert shuffled.canonical() .succ == t.canonical().succ
    others = [s for i, s in enumerate(enumerate_tadpoles(3)) if i != 2]
    assert all(s != t for s in others)


def test_psi_leg_end_returns_pair():
    t = enumerate_tadpoles(2)[0]
    assert psi(X_TADPOLE, (t, LEG_END)) == (X_TADPOLE, t)


def test_psi_grows_size():
    t2 = enumerate_tadpoles(2)[0]
    d = sorted(t2.vertices)[0]
    combined = psi(X_TADPOLE, (t2, d))
    assert isinstance(combined, TadpoleGraph)
    assert combined.boson_count == 3
    assert combined.is_one_particle_irreducible()


def test_psi_keeps_parts_with_negative_vertex_names_apart():
    t1 = TadpoleGraph.from_literal("loops: (-12 0 1) ; bosons: 0-1 ; leg: -12")
    t2 = TadpoleGraph.from_literal("loops: (-10 0 1) ; bosons: 0-1 ; leg: -10")
    r = enumerate_tadpoles(2)[0]
    assert t1 == t2 == r
    assert psi(t1, (t2, 0)) == psi(r, (r, 1))


def test_psi_rejects_foreign_mark():
    t2 = enumerate_tadpoles(2)[0]
    with pytest.raises(ValueError):
        psi(X_TADPOLE, (t2, 99))


def test_psi_inv_rejects_single_vertex():
    with pytest.raises(ValueError, match="^the one-vertex tadpole is not in the image$"):
        psi_inv(X_TADPOLE)


def test_psi_roundtrip_total_loops_up_to_4():
    for total in range(2, 5):
        for a in range(1, total):
            b = total - a
            for t1 in enumerate_tadpoles(a):
                for t2, d in marked_tadpoles(b):
                    combined = psi(t1, (t2, d))
                    t1_back, (t2_back, d_back) = psi_inv(combined)
                    assert t2_back == t2
                    assert d_back == d
                    assert t1_back == t1


def test_psi_inv_then_psi_is_identity(monkeypatch):
    # 1 of the 27 tadpoles at 4 loops and 10 of the 248 at 5 split a Gamma
    # with more than one bridge
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    for loops in (2, 3, 4, 5):
        for t in enumerate_tadpoles(loops):
            t1, (t2, d) = psi_inv(t)
            assert psi(t1, (t2, d)) == t


@pytest.mark.parametrize("n", [40, 120, 200])
def test_psi_inv_then_psi_is_identity_at_every_split_of_a_large_tadpole(n):
    # parts this large run the block search deep; at 40 chords one of the
    # splits meets a Gamma with more than one bridge
    todo, splits = [diagram_to_tadpole(random_connected_diagram(n, seed=n))], 0
    while todo:
        t = todo.pop()
        if t.is_single_vertex():
            continue
        t1, (t2, d) = psi_inv(t)
        assert t1.is_one_particle_irreducible() and t2.is_one_particle_irreducible()
        assert psi(t1, (t2, d)) == t
        todo += [t1, t2]
        splits += 1
    assert splits == n - 1


def assert_split_matches_the_oracle(t):
    """psi_inv(t) against the split that copies t: d, and both parts' maps
    and literals (a literal lists the loops in the order of the map)."""
    (t1, (t2, d)), (o1, (o2, od)) = psi_inv(t), split_tadpole(t)
    assert d == od
    for part, expected in ((t1, o1), (t2, o2)):
        assert (part.succ, part.boson, part.leg) == (expected.succ, expected.boson, expected.leg)
        assert part.to_literal() == expected.to_literal()
    return t1, t2


def test_psi_inv_matches_the_copying_split(monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    for loops in (2, 3, 4, 5):
        for t in enumerate_tadpoles(loops):
            assert_split_matches_the_oracle(t)


def test_psi_inv_matches_the_copying_split_on_lambda_inverse_images():
    # the first split of lambda^-1 of each of the 41,342 connected diagrams
    # with 2 <= n <= 7, whose vertex names are psi's: about 7.5 s
    for n in range(2, 8):
        for d in connected_diagrams(n):
            assert_split_matches_the_oracle(diagram_to_tadpole(d))


def test_psi_inv_and_lambda_leave_their_input_unchanged():
    # both cut a copy of the maps in place, and a tadpole's dicts are mutable
    large = diagram_to_tadpole(random_connected_diagram(40, seed=40))
    for t in [*enumerate_tadpoles(4), large]:
        before = dict(t.succ), dict(t.boson), t.to_literal()
        psi_inv(t)
        tadpole_to_diagram(t)
        assert (t.succ, t.boson, t.to_literal()) == before


def test_psi_is_injective_across_inputs():
    # all (t1, (t2, d)) with total loops 4 give distinct single tadpoles
    images = set()
    count = 0
    for a in range(1, 4):
        for t1 in enumerate_tadpoles(a):
            for t2, d in marked_tadpoles(4 - a):
                images.add(psi(t1, (t2, d)))
                count += 1
    assert len(images) == count


def test_psi_order_single_vertex():
    assert psi_order(X_TADPOLE) == {0: 1}


@pytest.mark.parametrize("loops", [1, 2, 3, 4])
def test_psi_order_is_a_bijection(loops):
    for t in enumerate_tadpoles(loops):
        ranks = psi_order(t)
        assert set(ranks) == t.vertices
        assert sorted(ranks.values()) == list(range(1, 2 * loops))
        assert ranks[t.leg] == 1


def test_bijection_sends_single_vertex_to_single_chord():
    assert tadpole_to_diagram(X_TADPOLE) == ChordDiagram((1, 0))


@pytest.mark.parametrize("loops", [1, 2, 3, 4])
def test_bijection_onto_connected_diagrams(loops):
    # Onto the connected diagrams, from as many tadpoles as there are of them.
    tadpoles = enumerate_tadpoles(loops)
    assert checks.lambda_image(loops, tadpoles)[1] and checks.tadpole_count(loops, tadpoles)[1]


@pytest.mark.parametrize("loops", [1, 2, 3, 4])
def test_bijection_roundtrip(loops):
    for t in enumerate_tadpoles(loops):
        assert diagram_to_tadpole(tadpole_to_diagram(t)) == t
    for d in connected_diagrams(loops):
        assert tadpole_to_diagram(diagram_to_tadpole(d)) == d


def random_connected_diagram(n, seed):
    """A uniform connected diagram on n chords: uniform matchings drawn until
    one is connected (about a third are)."""
    rng = random.Random(seed)
    while True:
        ends = list(range(2 * n))
        rng.shuffle(ends)
        partners = [0] * (2 * n)
        for a, b in zip(ends[::2], ends[1::2]):
            partners[a] = b
            partners[b] = a
        d = ChordDiagram(partners)
        if d.is_connected():
            return d


@pytest.mark.parametrize("loops", [10, 22, 40])
def test_psi_order_splits_each_node_once(loops, monkeypatch):
    # The decomposition of a tadpole with n loops is a binary tree with n
    # one-vertex leaves, so it has n - 1 inner nodes, each split once.
    t = diagram_to_tadpole(random_connected_diagram(loops, seed=loops))
    calls = []

    split = yukawa._split

    def counted(*maps):
        calls.append(maps)
        return split(*maps)

    monkeypatch.setattr(yukawa, "_split", counted)
    psi_order(t)
    assert len(calls) == loops - 1


@pytest.mark.parametrize("loops", [10, 22, 40])
def test_roundtrip_splits_each_node_once(loops, monkeypatch):
    # tadpole_to_diagram splits each of the n - 1 inner nodes once, and a
    # whole roundtrip splits at most twice that often.
    d = random_connected_diagram(loops, seed=loops)
    calls = []

    split = yukawa._split

    def counted(*maps):
        calls.append(maps)
        return split(*maps)

    monkeypatch.setattr(yukawa, "_split", counted)
    t = diagram_to_tadpole(d)
    before = len(calls)
    assert tadpole_to_diagram(t) == d
    assert len(calls) - before == loops - 1
    assert len(calls) <= 2 * (loops - 1)


def test_bijection_roundtrip_at_forty_chords():
    d = random_connected_diagram(40, seed=2020)
    t = diagram_to_tadpole(d)
    assert len(t.vertices) == 2 * 40 - 1
    assert tadpole_to_diagram(t) == d


def test_lambda_inverse_matches_the_nabla_oracle():
    # succ, boson and leg: the vertex names are psi's, and the CLI prints them
    for n in range(1, 8):
        for d in connected_diagrams(n):
            t, expected = diagram_to_tadpole(d), tadpole_by_nabla(d)
            assert (t.succ, t.boson, t.leg) == (expected.succ, expected.boson, expected.leg)


def test_places_match_the_root_share_oracle(monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    for loops in (1, 2, 3, 4, 5):
        for t in enumerate_tadpoles(loops):
            assert yukawa._places(t) == places_by_root_share(t)


def full_crossing(n):
    return ChordDiagram([(i + n) % (2 * n) for i in range(2 * n)])


def crossing_chain(n):
    """Chord i crosses chords i - 1 and i + 1 only."""
    ends = [(0, 2), *((2 * i - 1, 2 * i + 2) for i in range(1, n - 1)), (2 * n - 3, 2 * n - 1)]
    partners = [0] * (2 * n)
    for a, b in ends:
        partners[a], partners[b] = b, a
    return ChordDiagram(partners)


def uniform_connected(n):
    return random_connected_diagram(n, seed=n)


def needles_under_a_run(n):
    """k = (n - 1) // 3 single chords, each crossed by its own needle, inside
    a run of the other n - 1 - 2k chords, which cross each other and the
    root: lambda^-1's sweep pops each single chord at every chord of the run
    and pushes it back."""
    k = (n - 1) // 3
    run = [("run", j) for j in range(n - 1 - 2 * k)]
    labels = ["root", *(("needle", i) for i in range(k)), *run,
              *(end for i in range(k) for end in (("small", i), ("needle", i), ("small", i))),
              "root", *run]
    first, partners = {}, [0] * (2 * n)
    for place, label in enumerate(labels):
        other = first.setdefault(label, place)
        partners[place], partners[other] = other, place
    return ChordDiagram(partners)


# The first two decompose 1199 levels deep, past the default recursion limit.
# lambda takes 0.5-1.4 s CPU on each shape at this size on a 2-core Xeon
# guest: each split searches its whole part.
@pytest.mark.parametrize("shape", [full_crossing, crossing_chain, needles_under_a_run])
def test_bijection_at_1200_chords_under_the_default_recursion_limit(shape):
    assert sys.getrecursionlimit() < 1200
    d = shape(1200)
    assert d.is_connected()
    t = diagram_to_tadpole(d)
    assert t.boson_count == 1200 and t.is_one_particle_irreducible()
    assert tadpole_to_diagram(t) == d


@pytest.mark.parametrize("shape", [full_crossing, crossing_chain, uniform_connected,
                                   needles_under_a_run])
def test_lambda_matches_the_oracles_at_1200_chords(shape):
    d = shape(1200)
    t, expected = diagram_to_tadpole(d), tadpole_by_nabla(d)
    assert (t.succ, t.boson, t.leg) == (expected.succ, expected.boson, expected.leg)
    assert yukawa._places(t) == places_by_root_share(t)


def test_bijection_at_five_loops_behind_flag(monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    tadpoles = enumerate_tadpoles(5)
    images = {tadpole_to_diagram(t) for t in tadpoles}
    assert len(images) == 248
    assert images == set(connected_diagrams(5))
    for t in tadpoles[::25]:
        assert diagram_to_tadpole(tadpole_to_diagram(t)) == t


# -- test-local oracle: one recursion per map, psi_order recomputed per level --


def oracle_psi_order(t):
    if t.is_single_vertex():
        return {t.leg: 1}
    t1, (t2, d) = psi_inv(t)
    ranks2 = oracle_psi_order(t2)
    q = ranks2[d]
    v_t = t.leg
    a = t.succ[v_t]  # the reinstated leg end of t2
    order = {v_t: 1}
    if t1.is_single_vertex():
        for s, rank in ranks2.items():
            if s == d:
                order[d] = q + 1
            elif rank < q:
                order[s] = rank + 1
            else:
                order[s] = rank + 2
        order[a] = q + 2
    else:
        w = t.succ[d]  # the vertex that migrated out of t1
        ranks1 = oracle_psi_order(t1)
        m = max(ranks1.values())
        source_map = {t1.leg: v_t}
        for s in ranks1:
            if s == t1.leg:
                continue
            source_map[s] = a if s == w else s
        for s, rank in ranks1.items():
            if s == t1.leg:
                continue
            order[source_map[s]] = rank + q
        for s, rank in ranks2.items():
            if s == d:
                order[d] = q + 1
            elif rank < q:
                order[s] = rank + 1
            else:
                order[s] = rank + m + 1
        order[w] = m + q + 1
    return order


def oracle_tadpole_to_diagram(t):
    if t.is_single_vertex():
        return ChordDiagram((1, 0))
    t1, (t2, d) = psi_inv(t)
    k = oracle_psi_order(t2)[d]
    return nabla_inv(
        RootShareTriple(oracle_tadpole_to_diagram(t1), oracle_tadpole_to_diagram(t2), k)
    )


def oracle_diagram_to_tadpole(d):
    if d.n == 1:
        return X_TADPOLE
    triple = nabla(d)
    t2 = oracle_diagram_to_tadpole(triple.c2)
    [mark] = [v for v, rank in oracle_psi_order(t2).items() if rank == triple.k]
    return psi(oracle_diagram_to_tadpole(triple.c1), (t2, mark))


@pytest.mark.parametrize("loops", [1, 2, 3, 4, 5])
def test_maps_match_the_oracle(loops, monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "5")
    for t in enumerate_tadpoles(loops):
        assert psi_order(t) == oracle_psi_order(t)
        d = tadpole_to_diagram(t)
        assert d == oracle_tadpole_to_diagram(t)
        # the chord form in the psi order: each vertex at the rank of the
        # edge into it, the root chord at the leg and a chord per boson
        place = {t.succ[v]: rank for v, rank in oracle_psi_order(t).items()}
        partners = [0] * (2 * loops)
        partners[0], partners[place[t.leg]] = place[t.leg], 0
        for v, w in t.boson.items():
            partners[place[v]] = place[w]
        assert d == ChordDiagram(partners)
        back, expected = diagram_to_tadpole(d), oracle_diagram_to_tadpole(d)
        # vertex names are part of the output (the CLI prints them)
        assert (back.succ, back.boson, back.leg) == (expected.succ, expected.boson, expected.leg)


def raw_tadpoles(loops):
    """Every tadpole that enumerate_tadpoles builds before its 1PI filter."""
    m = 2 * loops - 1
    for root_len in range(1, m + 1):
        for rest in yukawa._partitions(m - root_len):
            succ, start = {}, 0
            for length in (root_len,) + rest:
                block = list(range(start, start + length))
                succ.update(zip(block, block[1:] + block[:1]))
                start += length
            for d in enumerate_diagrams(loops - 1):
                yield TadpoleGraph(succ, {a + 1: b + 1 for a, b in enumerate(d.partners)}, 0)


def test_one_particle_irreducible_matches_the_edge_deletion_oracle():
    candidates = [t for loops in range(1, 6) for t in raw_tadpoles(loops)]
    verdicts = [t.is_one_particle_irreducible() for t in candidates]
    assert (len(candidates), sum(verdicts)) == (7526, 825)
    assert verdicts == [tadpole_is_1pi(t.succ, t.boson) for t in candidates]


def test_tadpole_to_diagram_rejects_tadpoles_that_are_not_1pi():
    rejected = [t for loops in (2, 3, 4) for t in raw_tadpoles(loops)
                if not t.is_one_particle_irreducible()]
    assert len(rejected) == 431
    for t in rejected:
        with pytest.raises(ValueError, match="^only connected 1PI tadpoles"):
            tadpole_to_diagram(t)
    disconnected = TadpoleGraph.from_literal("loops: (0)(1 2) ; bosons: 1-2 ; leg: 0")
    with pytest.raises(ValueError, match="^only connected 1PI tadpoles"):
        tadpole_to_diagram(disconnected)


def test_psi_inv_rejects_tadpoles_that_are_not_1pi():
    # psi only builds 1PI tadpoles, so nothing else may be split
    rejected = [t for loops in (2, 3, 4) for t in raw_tadpoles(loops)
                if not t.is_one_particle_irreducible()]
    assert len(rejected) == 431
    for t in rejected:
        with pytest.raises(ValueError, match="^only 1PI tadpoles are in the image of psi$"):
            psi_inv(t)


def test_lambda_does_not_recheck_its_own_parts(monkeypatch):
    # every part of the recursion is built by the recursion itself, so no
    # level scans a chord diagram for connectivity
    tadpoles = enumerate_tadpoles(4)
    calls = []
    is_connected = ChordDiagram.is_connected

    def counted(d):
        calls.append(d)
        return is_connected(d)

    monkeypatch.setattr(ChordDiagram, "is_connected", counted)
    images = {tadpole_to_diagram(t) for t in tadpoles}
    assert len(images) == 27
    assert calls == []


def test_lambda_builds_no_tadpole(monkeypatch):
    # the splits cut one copy of the maps in place, so a part is its leg
    tadpoles = enumerate_tadpoles(4)
    calls = []
    init = TadpoleGraph.__init__

    def counted(t, *args):
        calls.append(args)
        init(t, *args)

    monkeypatch.setattr(TadpoleGraph, "__init__", counted)
    images = {tadpole_to_diagram(t) for t in tadpoles}
    assert len(images) == 27
    assert calls == []


def test_lambda_inverse_builds_one_tadpole_per_level(monkeypatch):
    # the sweep over a 4-chord diagram carries only successor arrays and
    # endpoint lists, so each inverse validates one tadpole, the one it returns
    diagrams = connected_diagrams(4)
    calls = []
    init = TadpoleGraph.__init__

    def counted(t, *args):
        calls.append(args)
        init(t, *args)

    monkeypatch.setattr(TadpoleGraph, "__init__", counted)
    tadpoles = {diagram_to_tadpole(d) for d in diagrams}
    assert len(tadpoles) == 27
    assert len(calls) == 27


def test_diagram_to_tadpole_rejects_disconnected():
    with pytest.raises(ValueError):
        diagram_to_tadpole(ChordDiagram.from_literal("2: 2 1 4 3"))


def test_marked_count_identity():
    # 2xTT' = T^2 + T - x with T the tadpole series (= C), checked to x^8
    order = 8
    t = connected_series(order + 1)
    lhs = 2 * fps.multiply_by_power(t.truncate(order) * t.derivative(), 1)
    rhs = t * t + t - fps.x(order + 1)
    assert lhs.truncate(order) == rhs.truncate(order)


# -- vertex graphs ------------------------------------------------------------


def test_vertex_graph_construction_and_chords():
    g = QQEDVertexGraph(3, ((1, 3),), 2)
    d = vertex_graph_to_diagram(g)
    assert d == ChordDiagram.from_literal("2: 3 4 1 2")
    assert qqed_primitive(g)


def test_vertex_graph_subdivergence_classification():
    # propagator-type subdivergence: isolated block right of the leg vertex
    propagator = QQEDVertexGraph(3, ((1, 2),), 3)
    d = vertex_graph_to_diagram(propagator)
    assert not d.is_connected()
    assert not qqed_primitive(propagator)
    # vertex-type subdivergence: connected but with a cut
    vertexlike = QQEDVertexGraph(5, ((1, 5), (2, 4)), 3)
    d2 = vertex_graph_to_diagram(vertexlike)
    assert d2.is_connected()
    assert d2.connectivity() == 1
    assert not qqed_primitive(vertexlike)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_vertex_graph_chord_map_is_injective(n):
    seen = set()
    total = 0
    for g in enumerate_vertex_graphs(n):
        seen.add(vertex_graph_to_diagram(g))
        total += 1
    assert len(seen) == total


# -- series identities -----------------------------------------------------------


def test_green_identities_hold():
    for report in green_identities(12):
        assert report.holds, report


def test_green_identities_hold_at_every_supported_order():
    for order in range(yukawa.MAX_GREEN_ORDER + 1):
        reports = green_identities(order)
        assert [r.name for r in reports] == list(yukawa.GREEN_IDENTITIES)
        for report in reports:
            assert report.holds and report.order == order, report


@pytest.mark.parametrize("order, message", [
    (-1, "order must be nonnegative"),
    (yukawa.MAX_GREEN_ORDER + 1, f"exceeds the supported cap {yukawa.MAX_GREEN_ORDER}"),
])
def test_green_identities_reject_orders_out_of_range(order, message):
    with pytest.raises(ValueError, match=message):
        green_identities(order)


def test_vacuum_series_values():
    v = vacuum_series(6)
    assert v.coeffs[1:] == (
        Fraction(1, 2), 1, Fraction(9, 2), 31, 283, 3186,
    )


def test_proper_green_function_table():
    rows = proper_green_function_table(6)
    assert rows["vacuum"] == [0, 0, Fraction(1, 2), 1, Fraction(9, 2), 31, 283]
    assert rows["tadpole"] == [0, 1, 1, 4, 27, 248, 2830]
    assert rows["two_boson_legs"] == [-1, 1, 3, 20, 189, 2232, 31130]
    assert rows["two_fermion_legs"] == rows["two_boson_legs"]
    assert rows["vertex"] == [1, 1, 9, 100, 1323, 20088, 342430]


def test_composed_kernel_values():
    kernel = composed_two_connected_kernel(6)
    assert kernel.coeffs == (1, 1, 9, 100, 1323, 20088, 342430)


def _tadpole_literal_error(text):
    return ("tadpole literal must have the form "
            f"'loops: (v ...)... ; bosons: v-w, ... ; leg: v', got {text!r}")


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: enumerate_tadpoles(0), ValueError, "a tadpole has at least one loop"),
        (lambda: QQEDVertexGraph(3, ((1, 3),), 4), ValueError, "leg position out of range"),
        (lambda: QQEDVertexGraph(3, ((3, 1),), 2), ValueError, "bad photon pair"),
        (lambda: QQEDVertexGraph(3, ((1, 2),), 2), ValueError,
         "photon ends must be distinct vertices"),
        (lambda: QQEDVertexGraph(5, ((1, 3),), 2), ValueError,
         "every vertex carries exactly one photon end or the leg"),
        (lambda: TadpoleGraph.from_literal("loops: (0) ; photons: ; leg: 0"), ValueError,
         _tadpole_literal_error("loops: (0) ; photons: ; leg: 0")),
        (lambda: TadpoleGraph.from_literal("loops: x(0) ; bosons: ; leg: 0"), ValueError,
         _tadpole_literal_error("loops: x(0) ; bosons: ; leg: 0")),
        (lambda: setattr(TadpoleGraph({0: 0}, {}, 0), "leg", 1), AttributeError,
         "TadpoleGraph is immutable"),
    ],
    ids=["no-loops", "leg-out-of-range", "photon-pair-order", "photon-on-leg",
         "vertex-without-photon", "literal-field-names", "literal-text-before-loop",
         "immutable"],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
