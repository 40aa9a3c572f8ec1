"""Brute-force diagram enumeration and structural predicates."""

import os
import random
from itertools import combinations

import pytest

from chordlab import checks, chord
from chordlab.bijections import with_fresh_labels
from chordlab.chord import (
    ChordDiagram,
    Census,
    census,
    enumerate_diagrams,
    indecomposable_completions,
    maximal_reasons,
    minimal_reasons,
    reasons_and_cuts,
)
from chordlab.cli import FILTERS
from oracles import (
    intersection_adjacency,
    intersection_components,
    join_root_component,
    labelled_intersection_graph,
    split_root_component,
    subdiagram,
)

DOUBLE_FACTORIALS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
CONNECTED = {1: 1, 2: 1, 3: 4, 4: 27, 5: 248, 6: 2830, 7: 38232}
TWO_CONNECTED = {1: 0, 2: 1, 3: 1, 4: 7, 5: 63, 6: 729}
CONNECTIVITY_ONE = {1: 1, 2: 0, 3: 3, 4: 20, 5: 185, 6: 2101}
INDECOMPOSABLE = {1: 1, 2: 2, 3: 10, 4: 74, 5: 706, 6: 8162}

CROSSING = ChordDiagram.from_literal("2: 3 4 1 2")
NESTED = ChordDiagram.from_literal("2: 4 3 2 1")
CONCAT = ChordDiagram.from_literal("2: 2 1 4 3")
SINGLE = ChordDiagram.from_literal("1: 2 1")


def deletion_connectivity(d: ChordDiagram) -> int:
    """Independent oracle: least number of chords whose deletion leaves a
    disconnected intersection graph (n if no deletion ever disconnects)."""
    if d.n == 0:
        return 0
    adj = intersection_adjacency(d)

    def component_count(vertices):
        vs = set(vertices)
        seen = set()
        comps = 0
        for v in vs:
            if v in seen:
                continue
            comps += 1
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w in vs and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return comps

    for size in range(d.n):
        for removed in combinations(range(d.n), size):
            rest = [i for i in range(d.n) if i not in removed]
            if rest and component_count(rest) >= 2:
                return size
    return d.n


def scanned_reasons(d: ChordDiagram) -> chord.ReasonReport:
    """Oracle for reasons_and_cuts: every window scanned again from each
    start, keeping the set of chords open across its boundary."""
    if d.connectivity() != 1:
        return chord.ReasonReport(False, ())
    p = d.partners
    m = len(p)
    cs = d.chords()
    chord_at = {}
    for idx, (a, b) in enumerate(cs):
        chord_at[a] = idx
        chord_at[b] = idx
    found = []
    for i in range(m):
        open_chords: set[int] = set()
        inside = False
        for j in range(i, m):
            q = p[j]
            if i <= q < j:
                open_chords.discard(chord_at[j])
                inside = True
            else:
                open_chords.add(chord_at[j])
            if len(open_chords) == 1 and inside and m - (j - i + 1) - 1 >= 2:
                found.append(chord.Reason((i + 1, j + 1), next(iter(open_chords))))
    return chord.ReasonReport(True, tuple(found))


def test_literal_roundtrip():
    for text in ("2: 3 4 1 2", "3: 4 6 5 1 3 2"):
        assert ChordDiagram.from_literal(text).to_literal() == text
    with pytest.raises(ValueError):
        ChordDiagram.from_literal("2: 1 2 4 3")


def formatted_literal(d):
    """The literal as `ChordDiagram.to_literal` formatted it before it read
    the endpoint names from a table."""
    body = " ".join([str(q + 1) for q in d.partners])
    return f"{d.n}: {body}" if body else f"{d.n}:"


@pytest.mark.parametrize("n", range(7))
def test_to_literal_matches_the_formatted_partners(n):
    for d in enumerate_diagrams(n):
        assert d.to_literal() == formatted_literal(d)


@pytest.mark.parametrize("n", [127, 128, 129, 1200])
def test_to_literal_past_the_name_table(n):
    # the table names the endpoints of up to 128 chords; past it, each call does
    ends = list(range(2 * n))
    random.Random(n).shuffle(ends)
    p = [0] * (2 * n)
    for a, b in zip(ends[::2], ends[1::2]):
        p[a], p[b] = b, a
    d = ChordDiagram(p)
    assert d.to_literal() == formatted_literal(d)
    assert ChordDiagram.from_literal(d.to_literal()) == d


@pytest.mark.parametrize(
    "partners,message",
    [
        ((1, 0, 2), "a diagram has an even number of endpoints"),
        ((0, 1), "partner array is not a fixed-point-free involution"),
        ((1, 0, 4, 2), "partner array is not a fixed-point-free involution"),
        ((1, 0, -1, 2), "partner array is not a fixed-point-free involution"),
        ((1, 2, 3, 0), "partner array is not a fixed-point-free involution"),
    ],
    ids=["odd-length", "fixed-point", "out-of-range", "negative", "not-an-involution"],
)
def test_constructor_rejects_arrays_that_are_not_matchings(partners, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChordDiagram(partners)


def assert_validated(diagrams):
    """Diagrams the library built without the constructor's checks equal
    what the validating constructor builds from their partner arrays."""
    for d in diagrams:
        assert type(d.partners) is tuple and d == ChordDiagram(d.partners)


@pytest.mark.parametrize("n", range(8))
def test_listed_diagrams_pass_the_constructor_checks(n):
    assert_validated(enumerate_diagrams(n))
    for _, _, levels in FILTERS.values():
        if levels is not None:
            assert_validated(chord.connectivity_class(n, levels))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_diagrams(n)) == DOUBLE_FACTORIALS[n]


def test_enumeration_is_deterministic_and_duplicate_free():
    seen = list(enumerate_diagrams(3))
    assert len(set(seen)) == 15
    assert seen[0].to_literal() == "3: 2 1 4 3 6 5"
    first_two_chords = list(enumerate_diagrams(2))
    assert [d.to_literal() for d in first_two_chords] == [
        "2: 2 1 4 3",
        "2: 3 4 1 2",
        "2: 4 3 2 1",
    ]


def recursive_diagrams(n):
    """The recursive enumeration `enumerate_diagrams` replaced: the smallest
    free endpoint takes each free partner in increasing order, through one
    nested generator per endpoint scanned."""
    if n == 0:
        yield ChordDiagram(())
        return
    m = 2 * n
    p = [-1] * m

    def rec(start):
        i = start
        while p[i] >= 0:
            i += 1
            if i == m:
                yield ChordDiagram(p)
                return
        for j in range(i + 1, m):
            if p[j] < 0:
                p[i] = j
                p[j] = i
                yield from rec(i + 1)
                p[i] = -1
                p[j] = -1

    yield from rec(0)


@pytest.mark.parametrize("n", range(8))
def test_enumeration_matches_the_recursive_oracle(n):
    # census and the roundtrip checks rely on this order
    assert list(enumerate_diagrams(n)) == list(recursive_diagrams(n))


@pytest.mark.parametrize("n", range(8))
def test_is_connected_matches_the_full_crossing_scan(n):
    for d in enumerate_diagrams(n):
        assert d.is_connected() == (len(list(chord.crossing_blocks(d.partners))) == 1)


@pytest.mark.parametrize("n", range(7))
def test_crossing_scan_names_the_crossing_blocks(n):
    # each component by its lowest opener, where it finishes and whether a
    # block stays open below it, in the order crossing_blocks yields them
    for d in enumerate_diagrams(n):
        p = d.partners
        for skip in (-1, 0):
            blocks = list(chord.crossing_blocks(p, skip))
            finishes = [max(p[a] for a in block) for block in blocks]
            nested = [any(a < b[0] < f < p[a] for a in range(len(p)) if a != skip)
                      for b, f in zip(blocks, finishes)]
            assert chord.crossing_scan(p, skip) == [
                (b[0], f, s) for b, f, s in zip(blocks, finishes, nested)]


def test_enumeration_guard(monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "2")
    with pytest.raises(ValueError):
        list(enumerate_diagrams(3))
    monkeypatch.setenv("CHORDLAB_MAX_N", "abc")
    with pytest.raises(ValueError, match="CHORDLAB_MAX_N"):
        census(3)
    with pytest.raises(ValueError, match="CHORDLAB_MAX_N"):
        list(enumerate_diagrams(3))
    monkeypatch.delenv("CHORDLAB_MAX_N")
    assert sum(1 for _ in enumerate_diagrams(3)) == 15
    with pytest.raises(ValueError, match="n must be nonnegative"):
        list(enumerate_diagrams(-1))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        census(-1)


@pytest.mark.parametrize("n,limit", [(1, 0), (2, 1), (3, 2), (7, 6)])
def test_enumeration_guard_raises_before_the_first_diagram(monkeypatch, n, limit):
    # n <= 1 is yielded directly and n = 2 goes straight to the completions
    monkeypatch.setenv("CHORDLAB_MAX_N", str(limit))
    listing = enumerate_diagrams(n)
    with pytest.raises(ValueError, match=f"n={n} exceeds the enumeration guard"):
        next(listing)
    monkeypatch.setenv("CHORDLAB_MAX_N", str(n))
    assert next(enumerate_diagrams(n)).partners == tuple(a ^ 1 for a in range(2 * n))


def test_connectivity_small_cases():
    assert CROSSING.connectivity() == 2
    assert CROSSING.is_connected()
    assert SINGLE.is_connected()
    assert SINGLE.connectivity() == 1
    assert NESTED.connectivity() == 0
    assert not NESTED.is_connected()
    assert CONCAT.connectivity() == 0
    assert CROSSING.is_k_connected(2)
    assert not CROSSING.is_k_connected(3)


def test_indecomposable_small_cases():
    assert NESTED.is_indecomposable()
    assert not CONCAT.is_indecomposable()
    assert ChordDiagram(()).is_indecomposable()


def test_census_matches_known_counts():
    assert census(0) == Census(1, 0, 0, 0, 0)
    for n in range(1, 7):
        c = census(n)
        assert c == Census(
            DOUBLE_FACTORIALS[n],
            CONNECTED[n],
            TWO_CONNECTED[n],
            CONNECTIVITY_ONE[n],
            INDECOMPOSABLE[n],
        ), f"census disagrees at n={n}: {c}"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_census_agrees_with_per_diagram_predicates(n):
    total = conn = two = one = ind = 0
    for d in enumerate_diagrams(n):
        total += 1
        k = d.connectivity()
        conn += k >= 1
        two += k >= 2
        one += k == 1
        ind += d.is_indecomposable()
        assert d.is_connected() == (k >= 1)
    assert census(n) == Census(total, conn, two, one, ind)


def test_indecomposable_completions_match_brute_force():
    # Partial diagram: an opener at 0 whose closer has a free endpoints
    # before it and b after it.  Every matching of the free endpoints is
    # one completion; count the indecomposable ones.
    g = indecomposable_completions(8)
    for a in range(9):
        for b in range(9 - a):
            free = [*range(1, a + 1), *range(a + 2, a + b + 2)]
            count = 0
            if len(free) % 2 == 0:
                for inner in enumerate_diagrams(len(free) // 2):
                    p = [0] * (a + b + 2)
                    p[0], p[a + 1] = a + 1, 0
                    for i, q in enumerate(inner.partners):
                        p[free[i]] = free[q]
                    count += ChordDiagram(p).is_indecomposable()
            assert g[a][b] == count, (a, b)


CLASSES = ["connected", "2connected", "connectivity1"]


@pytest.mark.parametrize("name", CLASSES)
def test_connectivity_class_equals_filtering_every_diagram(name):
    # The per-diagram classifier of the CLI filter is the oracle, order
    # included.
    keep, _, levels = FILTERS[name]
    for n in range(7):
        listed = chord.connectivity_class(n, levels)
        assert listed == [d for d in enumerate_diagrams(n) if keep(d)], n


def test_connectivity_class_at_seven_chords_equals_filtering_every_diagram():
    # The search settles 1 against 2 on a leaf's final run of closers
    # without looking for cut 0 there; every class is checked against the
    # per-diagram window scan.
    diagrams = list(enumerate_diagrams(7))
    levels = [min(d.connectivity(), 2) for d in diagrams]
    listed = chord.connectivity_class(7, (1, 2))
    assert len(listed) == 38232
    assert listed == [d for d, c in zip(diagrams, levels) if c]
    for level in range(3):
        assert chord.connectivity_class(7, (level,)) == [
            d for d, c in zip(diagrams, levels) if c == level], level


def test_connectivity_class_with_level_zero_visits_every_leaf():
    for n in range(6):
        disconnected = [d for d in enumerate_diagrams(n) if not d.is_connected()]
        assert chord.connectivity_class(n, (0,)) == disconnected
        assert chord.connectivity_class(n, (0, 1, 2)) == list(enumerate_diagrams(n))
    assert chord.connectivity_class(4, ()) == chord.connectivity_class(4, (3,)) == []


def test_listing_search_counts_the_leaves_it_visits():
    # Counting and listing run through one kernel: with every connected
    # leaf kept, the sink sees exactly the counted connected diagrams, up to
    # n = 7, the size of the benchmark's largest census.
    for n in range(1, 8):
        leaves = []
        counts = chord._census_search(n, 1, (False, True, True), leaves.append)(0)
        assert counts == chord._census_search(n, 1)(0)
        assert len(leaves) == counts[1] == CONNECTED[n]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_census_shards_add_up_to_the_whole_search(n):
    whole = chord._census_search(n, 1)(0)
    for shards in (2, 3, 4):
        run = chord._census_search(n, shards)
        assert [sum(c) for c in zip(*map(run, range(shards)))] == whole, shards


CENSUS_7 = Census(135135, 38232, 10113, 28119, 110410)


@pytest.fixture
def fake_mask(monkeypatch):
    """fake_mask(size) has census read a mask of size CPUs, this process's
    own first and then ids past them that the host may lack, narrows this
    process to that mask (the kernel drops the ids it lacks) and returns
    the mask the process then has.  The real mask is put back afterwards."""
    real, put = os.sched_getaffinity(0), os.sched_setaffinity

    def fake(size):
        ids = sorted(real)
        mask = set(ids[:size]) | set(range(ids[-1] + 1, ids[-1] + 1 + size - len(ids)))
        put(0, mask)
        held = os.sched_getaffinity(0)
        monkeypatch.setattr(chord.os, "sched_getaffinity", lambda pid: mask)
        return held

    yield fake
    put(0, real)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sharded_census_matches_the_series(monkeypatch, fake_mask, cpus):
    real_fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return real_fork()

    held = fake_mask(cpus)
    monkeypatch.setattr(chord.os, "fork", counted_fork)
    name, ok, detail = checks.census_matches_series(7)
    assert ok, detail
    assert detail == str(CENSUS_7)
    assert len(forks) == min(cpus, 2) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.undo()
    assert os.sched_getaffinity(0) == held


def test_each_census_shard_runs_on_a_cpu_of_its_own(monkeypatch):
    # Shard w runs pinned to the CPU at index w of the sorted mask, the
    # caller's shard 0 included; a shard elsewhere fails census(7).
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("census(7) runs whole on one CPU")
    search = chord._census_search

    def placed_search(n, shards):
        run = search(n, shards)

        def placed_run(shard):
            assert os.sched_getaffinity(0) == {cpus[shard]}, f"shard {shard} unpinned"
            return run(shard)

        return placed_run

    held = os.sched_getaffinity(0)
    monkeypatch.setattr(chord, "_census_search", placed_search)
    assert census(7) == CENSUS_7
    assert os.sched_getaffinity(0) == held
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_counts_alike_where_no_pin_takes(monkeypatch):
    # Placement is a hint: a CPU the host lacks, or one outside its cpuset,
    # makes sched_setaffinity fail, and the shards then run where they are.
    mask = {0, 1}
    monkeypatch.setattr(chord.os, "sched_getaffinity", lambda pid: mask)
    tried = []

    def refused(pid, cpus):
        tried.append(set(cpus))
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(chord.os, "sched_setaffinity", refused)
    assert census(7) == CENSUS_7
    assert tried == [{0}, mask]  # the caller's pin and the return of its mask
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_census_below_seven_chords_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("census forked")

    def no_pin(pid, cpus):
        raise AssertionError("census pinned")

    monkeypatch.setattr(chord.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(chord.os, "fork", no_fork)
    monkeypatch.setattr(chord.os, "sched_setaffinity", no_pin)
    assert census(0) == Census(1, 0, 0, 0, 0)
    for n in range(1, 7):
        assert census(n) == Census(DOUBLE_FACTORIALS[n], CONNECTED[n], TWO_CONNECTED[n],
                                   CONNECTIVITY_ONE[n], INDECOMPOSABLE[n])


def test_census_runs_whole_without_fork_or_affinity(monkeypatch):
    mask = {2, 0, 1}
    monkeypatch.setattr(chord.os, "sched_getaffinity", lambda pid: mask)
    assert chord._census_shards(8) == ([0, 1, 2], mask)
    assert chord._census_shards(7) == ([0, 1], mask)
    monkeypatch.delattr(chord.os, "fork")
    assert chord._census_shards(8) == ([0], set())
    monkeypatch.undo()
    monkeypatch.delattr(chord.os, "sched_getaffinity")
    assert chord._census_shards(8) == ([0], set())


@pytest.mark.parametrize("failure", [ArithmeticError("shard lost"), KeyboardInterrupt()],
                         ids=["worker", "interrupt"])
def test_census_reaps_its_workers_when_a_shard_fails(monkeypatch, fake_mask, failure):
    # An ArithmeticError fails the worker's shard; a KeyboardInterrupt stops
    # the caller's own shard while the worker is still searching.
    search = chord._census_search

    def failing_search(n, shards):
        run = search(n, shards)

        def failing_run(shard):
            if (shard == 0) == isinstance(failure, KeyboardInterrupt):
                raise failure
            return run(shard)

        return failing_run

    held = fake_mask(2)
    monkeypatch.setattr(chord, "_census_search", failing_search)
    if isinstance(failure, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            census(7)
    else:
        with pytest.raises(RuntimeError,
                           match=r"census worker for shard 1 failed .*shard lost"):
            census(7)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.undo()
    assert os.sched_getaffinity(0) == held


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_window_connectivity_equals_deletion_connectivity(n):
    for d in enumerate_diagrams(n):
        assert d.connectivity() == deletion_connectivity(d), d


@pytest.mark.parametrize("n", range(7))
def test_reasons_match_the_open_chord_scan(n):
    for d in enumerate_diagrams(n):
        assert reasons_and_cuts(d) == scanned_reasons(d), d


def test_root_component_and_dangling():
    assert SINGLE.components()[0] == frozenset({0})
    core, [(left, right)] = split_root_component(with_fresh_labels(SINGLE))
    assert core.diagram == SINGLE
    assert left.n == 0 and right.n == 0
    # root chord of a concatenation keeps its trailing partner diagram
    assert CONCAT.components()[0] == frozenset({0})
    core, [(left, right)] = split_root_component(with_fresh_labels(CONCAT))
    assert core.diagram == SINGLE
    assert left.n == 0
    assert right.diagram == SINGLE


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_component_roundtrip(n):
    for d in enumerate_diagrams(n):
        ld = with_fresh_labels(d)
        core, danglings = split_root_component(ld)
        assert core.diagram == subdiagram(d, d.components()[0])
        assert join_root_component(core, danglings) == ld


def test_reasons_vacuous_and_flagging():
    assert reasons_and_cuts(SINGLE) == chord.ReasonReport(True, ())
    report = reasons_and_cuts(CROSSING)
    assert not report.connectivity_one
    assert report.reasons == ()


def test_reasons_on_explicit_diagram():
    # {1,4},{2,6},{3,5}: the only reason is the window {3,4,5} cut by {1,4}
    d = ChordDiagram.from_literal("3: 4 6 5 1 3 2")
    assert d.connectivity() == 1
    report = reasons_and_cuts(d)
    assert report.connectivity_one
    assert report.reasons == (chord.Reason((3, 5), 0),)
    assert minimal_reasons(report) == report.reasons
    assert maximal_reasons(report) == report.reasons


def test_connectivity_one_count_at_three_chords():
    found = [d for d in enumerate_diagrams(3) if d.connectivity() == 1]
    assert len(found) == 3
    for d in found:
        assert reasons_and_cuts(d).reasons


@pytest.mark.parametrize("n", range(1, 8))
def test_reasons_of_one_cut_nest_or_are_disjoint(n):
    # Windows certifying different cuts may overlap: (1,3),(2,5),(4,7),(6,8)
    # has reasons (1,5) and (4,8).  Per fixed cut chord they never do.
    for d in enumerate_diagrams(n):
        if d.connectivity() != 1:
            continue
        by_cut = {}
        for r in reasons_and_cuts(d).reasons:
            by_cut.setdefault(r.cut_chord, []).append(r.window)
        for windows in by_cut.values():
            for (a1, b1), (a2, b2) in combinations(windows, 2):
                disjoint = b1 < a2 or b2 < a1
                nested = (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)
                assert disjoint or nested, (d, (a1, b1), (a2, b2))


@pytest.mark.parametrize("n", range(2, 7))
def test_reason_cuts_are_exactly_the_disconnecting_chords(n):
    for d in enumerate_diagrams(n):
        if d.connectivity() != 1:
            continue
        cuts_by_reason = {r.cut_chord for r in reasons_and_cuts(d).reasons}
        cuts_by_deletion = {
            c
            for c in range(d.n)
            if not subdiagram(d, [i for i in range(d.n) if i != c]).is_connected()
        }
        assert cuts_by_reason == cuts_by_deletion, d


def test_reason_cuts_disconnect():
    for n in range(2, 6):
        for d in enumerate_diagrams(n):
            if d.connectivity() != 1:
                continue
            for reason in reasons_and_cuts(d).reasons:
                rest = [i for i in range(d.n) if i != reason.cut_chord]
                assert not subdiagram(d, rest).is_connected() or len(rest) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_labelled_intersection_graph_injective_on_connected(n):
    # Injectivity cannot hold for arbitrary diagrams (the nested and the
    # concatenated pair both give two isolated vertices); on connected
    # diagrams the labelled graph determines the diagram.
    seen = {}
    for d in enumerate_diagrams(n):
        if not d.is_connected():
            continue
        g = labelled_intersection_graph(d)
        key = (g.n, g.edges)
        assert key not in seen, (d, seen[key])
        seen[key] = d


def test_intersection_graph_adjacency_is_crossing():
    d = ChordDiagram.from_literal("3: 4 6 5 1 3 2")
    adj = intersection_adjacency(d)
    assert adj[0] == {1, 2}
    assert adj[1] == {0}
    assert adj[2] == {0}


@pytest.mark.parametrize("n", range(7))
def test_crossing_scan_matches_adjacency_oracle(n):
    for d in enumerate_diagrams(n):
        adj = intersection_adjacency(d)
        openers = [a for a, _ in d.chords()]

        def oracle(left_out):  # the blocks the scan should yield, sorted
            allowed = [i for i in range(n) if i != left_out]
            return [[openers[i] for i in sorted(comp)]
                    for comp in intersection_components(adj, allowed)]

        everything = oracle(None)
        assert sorted(chord.crossing_blocks(d.partners)) == everything
        assert d.components() == intersection_components(adj, range(n))
        assert d.is_connected() == (len(everything) == 1)
        for i, a in enumerate(openers):  # each chord left out, the root (i = 0) first
            assert sorted(chord.crossing_blocks(d.partners, skip=a)) == oracle(i)
