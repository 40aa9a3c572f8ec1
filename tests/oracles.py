"""Reference implementations that the tests hold the library to.

Nothing in chordlab calls these.  The intersection graph comes from the
O(n^2) pairwise crossing test and its components from a breadth-first
search, and the nested Bell expansion has one loop per block boundary.
The partial Bell recurrence runs in Fractions, as the library ran it
before it scaled each value list to integers.
The token-list split and join are theta's steps as they were before theta
split runs of the seed's partner arrays: they pair labels again and slice
the list; the root-component split and join put them in labeled-diagram
form, for the tests to compare with their own oracles.  The crossing
scan's component list is read off the adjacency oracle, and the root-share
and inner-opener finders read that list.
A tadpole is 1PI when no single edge deletion disconnects it, and psi's
inverse is the library's as it was before it cut one copy of the maps in
place: it copies the tadpole and validates both parts it returns.  lambda
and its inverse are the library's as they were before lambda^-1 became one
sweep and lambda's joins list splices: lambda^-1 applies nabla level by
level and renames both parts at each join, and both directions place the
parts through the root share table."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from chordlab import fps
from chordlab.bell import _BLOCK_STEP
from chordlab.bijections import LabeledDiagram, from_tokens, nabla
from chordlab.chord import ChordDiagram, crossing_blocks
from chordlab.yukawa import LEG_END, X_TADPOLE, TadpoleGraph, _block, _psi_move, _split


def intersection_adjacency(d: ChordDiagram) -> list[set[int]]:
    """Adjacency of the intersection graph over chord indices."""
    cs = d.chords()
    adj: list[set[int]] = [set() for _ in cs]
    for i, (a1, b1) in enumerate(cs):
        for j in range(i + 1, len(cs)):
            a2, b2 = cs[j]
            if a1 < a2 < b1 < b2:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def intersection_components(adj: Sequence[set[int]], allowed) -> list[frozenset[int]]:
    """Components of the intersection graph `adj` restricted to the chord
    indices in `allowed`, ordered by smallest chord index (chords are
    indexed by first endpoint, so this is first-endpoint order)."""
    free = [False] * len(adj)
    for i in allowed:
        free[i] = True
    comps = []
    for start in range(len(adj)):
        if not free[start]:
            continue
        free[start] = False
        comp = [start]
        for v in comp:  # grows while it is walked: a breadth-first search
            for w in adj[v]:
                if free[w]:
                    free[w] = False
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def subdiagram(d: ChordDiagram, chord_indices) -> ChordDiagram:
    """Diagram induced by a subset of chords, positions collapsed."""
    cs = d.chords()
    keep = sorted(chord_indices)
    positions = sorted(pos for i in keep for pos in cs[i])
    rank = {pos: r for r, pos in enumerate(positions)}
    p = [-1] * len(positions)
    for i in keep:
        a, b = cs[i]
        p[rank[a]] = rank[b]
        p[rank[b]] = rank[a]
    return ChordDiagram(p)


@dataclass(frozen=True)
class IntersectionGraph:
    """The intersection graph with the recursive labelling: the root chord is
    labelled first, then the components left after removing it, ordered by
    first endpoint, are labelled recursively."""

    n: int
    labels: tuple[int, ...]  # labels[chord_index] = label in 1..n
    edges: frozenset[tuple[int, int]]  # (smaller label, larger label)


def labelled_intersection_graph(d: ChordDiagram) -> IntersectionGraph:
    adj = intersection_adjacency(d)
    labels = [0] * d.n
    counter = [0]

    def assign(indices: frozenset[int]) -> None:
        root = min(indices)
        counter[0] += 1
        labels[root] = counter[0]
        for comp in intersection_components(adj, indices - {root}):
            assign(comp)

    if d.n:
        assign(frozenset(range(d.n)))
    edge_set = frozenset(
        (min(labels[i], labels[j]), max(labels[i], labels[j]))
        for i in range(d.n)
        for j in adj[i]
        if i < j
    )
    return IntersectionGraph(d.n, tuple(labels), edge_set)


def bell_partial_fraction(n: int, k: int, xs) -> Fraction:
    """bell.bell_partial's recurrence over the Fractions x_1..x_(n-k+1),
    filled every _BLOCK_STEP block counts from below as the library fills
    its memo, so a large k stays within the recursion limit."""
    values = tuple(map(fps._exact, xs[: max(n - k + 1, 0)]))
    for j in range(_BLOCK_STEP, k, _BLOCK_STEP):
        for m in range(j, j + n - k + 1):
            _bell_fraction_memo(m, j, values[: m - j + 1])
    return _bell_fraction_memo(n, k, values)


@lru_cache(maxsize=None)
def _bell_fraction_memo(n: int, k: int, xs: tuple[Fraction, ...]) -> Fraction:
    if n == 0:
        return Fraction(1) if k == 0 else Fraction(0)
    if k == 0 or k > n:
        return Fraction(0)
    total = Fraction(0)
    for s in range(1, n - k + 2):
        x = xs[s - 1]
        if x:
            total += comb(n, s) * x * _bell_fraction_memo(n - s, k - 1, xs[: n - s - k + 2])
    return total / k


def nested_convolution_literal(n: int, blocks: int, xs) -> Fraction:
    """Small-case oracle for bell.nested_convolution: the same sum written
    with one explicit loop per block boundary."""
    k = blocks - 1
    values = tuple(map(fps._exact, xs))
    if k == 0:
        return values[n - 1]
    total = Fraction(0)

    def loop(depth: int, prev: int, indices: list[int]) -> None:
        nonlocal total
        for a in range(k - depth, prev):
            indices.append(a)
            if depth == k - 1:
                prod = Fraction(1)
                upper = n
                for cut in indices:
                    prod *= comb(upper, cut) * values[upper - cut - 1]
                    upper = cut
                total += prod * values[upper - 1]
            else:
                loop(depth + 1, a, indices)
            indices.pop()

    loop(0, n, [])
    return total / factorial(blocks)


def token_partners(tokens: Sequence[int], first_block: bool = False) -> list[int]:
    """The partner array that pairs the two positions of each label; with
    first_block, that of the shortest prefix pairing them all, read no further."""
    first: dict[int, int] = {}
    p = [0] * len(tokens)
    for pos, lab in enumerate(tokens):
        if lab in first:
            a = first.pop(lab)
            p[a], p[pos] = pos, a
            if first_block and not first:
                return p[:pos + 1]
        else:
            first[lab] = pos
    if first:
        raise ValueError(f"unpaired labels: {sorted(first)}")
    return p


def token_split(tokens: list[int]) -> tuple[list[int], list[tuple[int, Sequence, Sequence]]]:
    """The root component of a nonempty token list and, per core chord in
    first-endpoint order, its label with the runs hanging after its two
    ends.  A chord in one run crossing into another would cross the core,
    so each run is a slice.  The core ends with the first block, so only it is
    scanned and the rest is the last run.  A connected list is its own core."""
    p = token_partners(tokens, first_block=True)
    root = next(b for b in crossing_blocks(p) if not b[0])
    if 2 * len(root) == len(tokens):
        return tokens, [(tokens[a], (), ()) for a in root]
    ends = sorted(root + [p[a] for a in root])
    run = {pos: tokens[pos + 1:end] for pos, end in zip(ends, ends[1:] + [len(tokens)])}
    return [tokens[pos] for pos in ends], [(tokens[a], run[a], run[p[a]]) for a in root]


def token_join(core: Sequence[int], hanging: dict) -> list[int]:
    """Inverse of token_split: each core token followed by the run hanging
    after it, hanging[label] holding the runs after the label's two ends."""
    out: list[int] = []
    seen: set[int] = set()
    for lab in core:
        out.append(lab)
        out += hanging[lab][lab in seen]
        seen.add(lab)
    return out


def split_root_component(
    ld: LabeledDiagram,
) -> tuple[LabeledDiagram, list[tuple[LabeledDiagram, LabeledDiagram]]]:
    """The root component of a nonempty diagram together with, per core
    chord, the labeled diagrams hanging right of its two ends (after the
    left end, after the right end), through the token-list split.  A plain
    diagram goes through with_fresh_labels."""
    tokens = ld.tokens()
    if not tokens:
        raise ValueError("the empty diagram has no root component")
    core, hanging = token_split(tokens)
    return (ld if core is tokens else from_tokens(core)), [
        (from_tokens(left), from_tokens(right)) for _, left, right in hanging
    ]


def join_root_component(core: LabeledDiagram, danglings) -> LabeledDiagram:
    """Inverse of split_root_component: hang each pair of diagrams right of
    the two ends of the matching core chord."""
    if not any(dl.labels for pair in danglings for dl in pair):
        return core
    hanging = {lab: (dl.tokens(), dr.tokens()) for lab, (dl, dr) in zip(core.labels, danglings)}
    return from_tokens(token_join(core.tokens(), hanging))


@lru_cache(maxsize=1)  # the inline-scan checks read two skips of each array
def _chords_and_adjacency(p: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[set[int]]]:
    d = ChordDiagram(p)
    return d.chords(), intersection_adjacency(d)


@lru_cache(maxsize=2)  # the inline-scan checks ask twice for each array's list
def scan_by_adjacency(p: tuple[int, ...], skip: int = -1) -> list[tuple[int, int, bool]]:
    """chord.crossing_scan from the adjacency oracle: (low, j, nested) for
    each component of the chords of p but the one opening at skip, where
    low is its least opener, j its last endpoint and nested says whether
    another of these chords spans it, sorted by j."""
    cs, adjacency = _chords_and_adjacency(p)
    allowed = [i for i, (a, _) in enumerate(cs) if a != skip]
    out = []
    for comp in intersection_components(adjacency, allowed):
        low = cs[min(comp)][0]  # chords are indexed in opener order
        j = max(cs[i][1] for i in comp)
        nested = any(cs[i][0] < low and j < cs[i][1] for i in allowed)
        out.append((low, j, nested))
    return sorted(out, key=lambda end: end[1])


def root_share_by_scan(p: Sequence[int]) -> tuple[int, int]:
    """bijections._root_share read off `scan_by_adjacency(p, skip=0)`, one
    component at a time."""
    r = p[0] if len(p) > 3 else 0
    lo = hi = r
    for low, j, _ in scan_by_adjacency(p, skip=0):
        if not low < r < j:
            break
        if low > 1:
            lo, hi = low, j
    else:
        if r:
            return lo - 1, hi
    raise ValueError("root share decomposition needs a connected diagram on >= 2 chords")


def inner_opener_by_scan(p: Sequence[int]) -> int:
    """bijections._inner_opener read off `scan_by_adjacency(p)`."""
    ends = scan_by_adjacency(p)
    if len(ends) != 2 or not ends[0][2]:
        raise ValueError("inverse needs an indecomposable diagram with exactly two components")
    return ends[0][0]


def tadpole_is_1pi(succ: dict[int, int], boson: dict[int, int]) -> bool:
    """Connected, and still connected after deleting any one fermion edge
    v -> succ[v] or boson edge; the external leg is no edge."""
    edges = [*succ.items(), *((v, w) for v, w in boson.items() if v < w)]
    for skip in range(-1, len(edges)):
        adj: dict[int, list[int]] = {v: [] for v in succ}
        for i, (v, w) in enumerate(edges):
            if i != skip:
                adj[v].append(w)
                adj[w].append(v)
        seen = [next(iter(succ))]
        for v in seen:  # grows while it is walked: a breadth-first search
            for w in adj[v]:
                if w not in seen:
                    seen.append(w)
        if len(seen) < len(succ):
            return False
    return True


def split_tadpole(t: TadpoleGraph):
    """psi_inv of a 1PI tadpole with more than one vertex, unchecked.  Cut
    the leg end a of t2 out of t, leaving Gamma; one block search from v2,
    a's boson partner, gives t2's part: all of Gamma when t1 is the single
    vertex, and otherwise everything but t1's part, joined to it by the
    boson of the vertex w that psi moved from t1 onto the marked edge."""
    v_t = t.leg
    a = t.succ[v_t]  # the leg end of t2, inserted after the leg vertex
    v2 = t.boson[a]
    # Gamma: t with a taken off its loop and its boson edge dropped
    succ, pred = dict(t.succ), {w: v for v, w in t.succ.items()}
    before, after = pred.pop(a), succ.pop(a)
    succ[before], pred[after] = after, before
    boson = dict(t.boson)
    del boson[a], boson[v2]
    block = _block(succ, pred, boson, v2)
    if len(block) == len(succ):  # the leg vertex sits on the marked edge
        w, t1 = v_t, X_TADPOLE
    else:  # v2 has no boson in Gamma
        [w] = [v for v in block if boson.get(v, v) not in block]
        t1_succ = {v: u for v, u in succ.items() if v not in block}
        t1_succ[w], t1_succ[v_t] = t1_succ[v_t], w
        t1 = TadpoleGraph(
            t1_succ, {v: u for v, u in boson.items() if v in t1_succ}, v_t
        )
    d = pred[w]
    t2_succ = {v: u for v, u in succ.items() if v in block and v != w}
    t2_succ[d] = succ[w]
    t2 = TadpoleGraph(
        t2_succ, {v: u for v, u in boson.items() if v in t2_succ}, v2
    )
    return (t1, (t2, d))


def root_share_places(m1: int, m2: int, k: int) -> list[int]:
    """The new place of endpoint i of c1, then of c2 (at m1 + i), joined on
    m1 + m2 endpoints: c1's 0, c2's first k, c1's rest, c2's rest."""
    return [0, *range(k + 1, k + m1), *range(1, k + 1), *range(k + m1, m1 + m2)]


def places_by_root_share(t: TadpoleGraph) -> dict[int, int]:
    """yukawa._places with each join placing both parts' place dicts by
    the root share table at k, the place of d's successor in t2."""
    succ, boson = dict(t.succ), dict(t.boson)
    pred = {w: v for v, w in succ.items()}
    todo, done = [t.leg], []
    while todo:
        leg = todo.pop()
        if type(leg) is tuple:  # (a, d's successor) of a split, below its parts
            (a, e), place2, place1 = leg, done.pop(), done.pop()
            m1 = len(place1) + 1
            at = root_share_places(m1, len(place2) + 1, place2[e])
            place = dict(zip(place1, map(at.__getitem__, place1.values())))
            place.update(zip(place2, map(at[m1:].__getitem__, place2.values())))
            place[a] = 1
            done.append(place)
        elif succ[leg] == leg:
            done.append({leg: 1})
        else:
            a = succ[leg]
            d, v2, _ = _split(succ, pred, boson, leg)
            todo += [(a, succ[d]), v2, leg]
    return done[0]


def tadpole_by_nabla(c: ChordDiagram) -> TadpoleGraph:
    """yukawa._to_tadpole by nabla at every level: a part is its leg and
    its successor and place arrays over psi's names: t2's, t1's, then a.
    A join places them by the root share table and makes psi's move."""
    partners, todo, done = c.partners, [c], []
    while todo:
        c = todo.pop()
        if type(c) is int:  # the k of a root share, below its two parts
            (succ2, place2, _), (succ1, place1, leg1) = done.pop(), done.pop()
            shift, m1 = len(place2), len(place1) + 1
            at = root_share_places(m1, shift + 1, c)
            a = shift + m1 - 1
            succ = [*succ2, *map(shift.__add__, succ1), a]
            place = [*map(at[m1:].__getitem__, place2), *map(at.__getitem__, place1), 1]
            _psi_move(succ, leg1 + shift, a, succ2.index(place2.index(c)))
            done.append((succ, place, leg1 + shift))
        elif c.n == 1:
            done.append(([0], [1], 0))
        else:
            triple = nabla(c)
            todo += [triple.k, triple.c2, triple.c1]
    succ, place, leg = done[0]
    name = [LEG_END, *sorted(range(len(place)), key=place.__getitem__)]  # at each place
    boson = {v: name[partners[p]] for v, p in enumerate(place) if v != leg}
    return TadpoleGraph(dict(enumerate(succ)), boson, leg)
