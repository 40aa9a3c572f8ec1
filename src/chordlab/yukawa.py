"""Three-valent two-edge-type diagram combinatorics: one-leg 1PI graphs
(tadpoles), their recursive pairing algorithm and the induced edge order,
the explicit bijection onto connected chord diagrams, the chord
representation of the no-fermion-loop vertex graphs, and the series-level
identities for the associated generating functions.

The pairing is called as psi(t1, (t2, d)).  Its image is the 1PI tadpoles
with more than one vertex, and psi_inv rejects any other tadpole.  Both
the 1PI test and psi_inv read one block search (`_block`): the vertices a
root reaches without crossing a bridge.  lambda recurses over the pairing
decomposition on a work stack, cutting one copy of the tadpole's maps in
place, so an n-loop tadpole is split n - 1 times, each split searches its
whole part, and lambda takes O(n^2) steps at any depth.  lambda^-1 is one
sweep over the chords, with no recursion and no renaming.  Both check
only their input.

A tadpole is stored as
  succ   -- successor along the (counter-clockwise) fermion loops; a
            permutation of the vertex set, fixed points being one-vertex
            loops;
  boson  -- the internal boson matching, an involution on all vertices
            except the leg vertex;
  leg    -- the vertex carrying the single external boson leg.
Vertex names are arbitrary integers; equality of connected tadpoles means
graph isomorphism respecting the leg and the loop orientation, decided
through a canonical traversal signature, and a disconnected one equals only
a tadpole with the same maps (the free end of the leg is never a vertex
here; algorithms that treat it as one use the LEG_END marker instead).

The bijection lambda (tadpole_to_diagram, inverse diagram_to_tadpole)
maps the 1PI tadpoles with n loops onto the connected diagrams with n
chords, 27 of each at n = 4.  A vertex's place in lambda(t) is the psi
rank of the fermion edge into it; the root chord runs from place 0 to the
leg vertex and each boson is a chord.  So lambda straightens the loops in
the psi order, as `vertex_graph_to_diagram` straightens a fermion path:

>>> len(enumerate_tadpoles(4))
27
>>> t = TadpoleGraph.from_literal("loops: (0 1 2) ; bosons: 1-2 ; leg: 0")
>>> sorted(_places(t).items())  # (vertex, place): root 0-2, boson 1-3
[(0, 2), (1, 1), (2, 3)]
>>> tadpole_to_diagram(t)
ChordDiagram('2: 3 4 1 2')
>>> diagram_to_tadpole(ChordDiagram.from_literal("2: 3 4 1 2")) == t
True
>>> diagram_to_tadpole(ChordDiagram.from_literal("3: 4 6 5 1 3 2"))  # psi's names
TadpoleGraph('loops: (0 3)(1 2 4) ; bosons: 0-4, 1-3 ; leg: 2')
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import fps
from .chord import ChordDiagram, _trusted, enumerate_diagrams, size_guard
from .fps import FormalPowerSeries
from .gfseries import (
    IdentityReport,
    _check_order,
    _compare,
    connected_series,
    two_connected_series,
)

LEG_END = "leg-end"  # the free end of the external leg, used as a mark

DEFAULT_MAX_LOOPS = 4


class TadpoleGraph:
    __slots__ = ("succ", "boson", "leg")

    def __init__(self, succ: dict[int, int], boson: dict[int, int], leg: int):
        vertices = set(succ)
        if leg not in vertices:
            raise ValueError("the leg vertex is not a vertex")
        if set(succ.values()) != vertices:
            raise ValueError("loop successor map is not a permutation")
        if set(boson) != vertices - {leg}:
            raise ValueError("every vertex but the leg needs a boson partner")
        for v, w in boson.items():
            if w == v or boson.get(w) != v:
                raise ValueError("boson map is not a fixed-point-free involution")
        object.__setattr__(self, "succ", dict(succ))
        object.__setattr__(self, "boson", dict(boson))
        object.__setattr__(self, "leg", leg)

    def __setattr__(self, name, value):
        raise AttributeError("TadpoleGraph is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self) -> set[int]:
        return set(self.succ)

    @property
    def boson_count(self) -> int:
        """Number of boson edges including the external leg; equals the loop
        number, and the number of vertices is 2*boson_count - 1."""
        return (len(self.succ) + 1) // 2

    def is_single_vertex(self) -> bool:
        return len(self.succ) == 1

    def loops(self) -> list[list[int]]:
        seen = set()
        out = []
        for start in self.succ:
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            v = self.succ[start]
            while v != start:
                loop.append(v)
                seen.add(v)
                v = self.succ[v]
            out.append(loop)
        return out

    def is_connected(self) -> bool:
        return len(self._traversal()[0]) == len(self.succ)

    def is_one_particle_irreducible(self) -> bool:
        """Connected and bridgeless on the internal (fermion + boson) edges:
        the leg's block holds every vertex.  The external leg is not an
        internal edge and is ignored."""
        pred = {w: v for v, w in self.succ.items()}
        return len(_block(self.succ, pred, self.boson, self.leg)) == len(self.succ)

    # -- identity ------------------------------------------------------------

    def _traversal(self) -> tuple[list[int], dict[int, int]]:
        """Breadth-first visit from the leg following the successor,
        predecessor and boson functions: the vertices of the leg's component
        in visiting order and the number of each (its position in that
        order)."""
        pred = {w: v for v, w in self.succ.items()}
        number = {self.leg: 0}
        order = [self.leg]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            neighbours = [self.succ[v], pred[v]]
            if v != self.leg:
                neighbours.append(self.boson[v])
            for w in neighbours:
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
        return order, number

    def canonical_signature(self) -> tuple:
        """Traversal signature: per vertex in visiting order, the numbers of
        its successor and boson partner.  Two connected tadpoles are
        isomorphic (leg-preserving, orientation kept) exactly when their
        signatures agree."""
        order, number = self._traversal()
        if len(order) != len(self.succ):
            raise ValueError("signature of a disconnected tadpole is undefined")
        return tuple(
            (
                number[self.succ[v]],
                number[self.boson[v]] if v != self.leg else -1,
            )
            for v in order
        )

    def canonical(self) -> "TadpoleGraph":
        """The isomorphic copy whose vertex names are the traversal numbers."""
        signature = self.canonical_signature()
        return TadpoleGraph(
            {v: w for v, (w, _) in enumerate(signature)},
            {v: w for v, (_, w) in enumerate(signature) if v},
            0,
        )

    def _key(self) -> tuple:
        try:
            return self.canonical_signature()
        except ValueError:  # disconnected: no signature, so keyed by its maps
            return None, frozenset(self.succ.items()), frozenset(self.boson.items()), self.leg

    def __eq__(self, other) -> bool:
        return isinstance(other, TadpoleGraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"TadpoleGraph({self.to_literal()!r})"

    # -- text form -------------------------------------------------------------

    def to_literal(self) -> str:
        loops = "".join(
            "(" + " ".join(str(v) for v in loop) + ")" for loop in self.loops()
        )
        bosons = ", ".join(
            f"{v}-{w}" for v, w in sorted(self.boson.items()) if v < w
        )
        return f"loops: {loops} ; bosons: {bosons} ; leg: {self.leg}"

    @classmethod
    def from_literal(cls, text: str) -> "TadpoleGraph":
        """Parse "loops: (v1 v2 ...)(...) ; bosons: a-b, c-d ; leg: v"."""
        succ: dict[int, int] = {}
        boson: dict[int, int] = {}
        listed = 0
        try:
            fields = [part.split(":", 1) for part in text.split(";")]
            [(k1, loops), (k2, bosons), (k3, leg)] = fields
            if [k1.strip(), k2.strip(), k3.strip()] != ["loops", "bosons", "leg"]:
                raise ValueError
            head, *groups = loops.split("(")
            if head.strip():
                raise ValueError
            for group in groups:
                body, close, tail = group.partition(")")
                if not close or tail.strip():
                    raise ValueError
                loop = [int(v) for v in body.split()]
                succ.update(zip(loop, loop[1:] + loop[:1]))
                listed += len(loop)
            for pair in bosons.split(",") if bosons.strip() else ():
                pair = pair.strip()  # a sign may lead either end: "-2--1"
                head, _, tail = pair[1:].partition("-")
                a, b = int(pair[:1] + head), int(tail)
                boson[a], boson[b] = b, a
            leg_vertex = int(leg)
        except ValueError:
            raise ValueError(
                "tadpole literal must have the form "
                f"'loops: (v ...)... ; bosons: v-w, ... ; leg: v', got {text!r}"
            ) from None
        if len(succ) != listed:
            raise ValueError(f"tadpole literal {text!r} lists a loop vertex twice")
        try:
            return cls(succ, boson, leg_vertex)
        except ValueError as exc:
            raise ValueError(f"tadpole literal {text!r}: {exc}") from None


def _block(succ: dict[int, int], pred: dict[int, int], boson: dict[int, int], root: int) -> set[int]:
    """The vertices root reaches without crossing a bridge, over the fermion
    edges v -> succ[v] and the boson edges.  One depth-first search with
    lowpoints (Tarjan, Inf. Proc. Lett. 2 (1974) 160) on a work stack, so it
    runs at any depth; a child whose subtree has no edge back above its
    parent is cut off.  A self-loop, or a missing boson read as one, lowers
    no lowpoint.  A vertex takes its edges in the order (succ, pred, boson),
    and an edge followed as the i-th edge of its tail is the (1, 0, 2)[i]-th
    edge of its head, so the edge the search came in by is not mistaken for
    a parallel one."""
    number, low, kept = {root: 0}, [0], [root]
    stack = [(root, 0, 0, 3, 0)]  # (vertex, number, next edge, edge in, place in kept)
    while stack:
        v, n, i, came, mark = stack.pop()
        while i < 3:
            if i != came:
                w = succ[v] if i == 0 else pred[v] if i == 1 else boson.get(v, v)
                if w not in number:
                    stack.append((v, n, i + 1, came, mark))
                    m = number[w] = len(low)
                    low.append(m)
                    stack.append((w, m, 0, (1, 0, 2)[i], len(kept)))
                    kept.append(w)
                    break
                if number[w] < low[n]:
                    low[n] = number[w]
            i += 1
        else:
            if stack:
                p = stack[-1][1]
                if low[n] > p:  # the edge in is a bridge
                    del kept[mark:]
                elif low[n] < low[p]:
                    low[p] = low[n]
    return set(kept)


X_TADPOLE = TadpoleGraph({0: 0}, {}, 0)


# -- enumeration -------------------------------------------------------------------


def _partitions(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    cap = n if cap is None else min(cap, n)
    for head in range(cap, 0, -1):
        for tail in _partitions(n - head, head):
            yield (head,) + tail


def enumerate_tadpoles(loops: int) -> list[TadpoleGraph]:
    """All 1PI tadpoles with the given loop number, one per isomorphism
    class, in a deterministic (signature-sorted) order."""
    limit = size_guard(DEFAULT_MAX_LOOPS)
    if loops > limit:
        raise ValueError(
            f"loop number {loops} exceeds the guard ({limit}); "
            "set CHORDLAB_MAX_N to raise it"
        )
    if loops < 1:
        raise ValueError("a tadpole has at least one loop")
    m = 2 * loops - 1
    bosons = [  # the matchings of the vertices 1..m-1
        {a + 1: b + 1 for a, b in enumerate(d.partners)} for d in enumerate_diagrams(loops - 1)
    ]
    found: dict[tuple, TadpoleGraph] = {}
    for root_len in range(1, m + 1):
        for rest in _partitions(m - root_len):
            succ: dict[int, int] = {}
            start = 0
            for length in (root_len,) + rest:
                block = list(range(start, start + length))
                for a, b in zip(block, block[1:] + block[:1]):
                    succ[a] = b
                start += length
            for boson in bosons:
                t = TadpoleGraph(succ, boson, 0)
                if not t.is_one_particle_irreducible():
                    continue
                sig = t.canonical_signature()
                if sig not in found:
                    found[sig] = t.canonical()
    return [found[sig] for sig in sorted(found)]


# -- the pairing algorithm ------------------------------------------------------------


def psi(t1: TadpoleGraph, marked: tuple[TadpoleGraph, int | str]):
    """Combine a tadpole t1 with a vertex-marked tadpole marked = (t2, d).

    With the mark on the free end of the leg, the pair is returned
    unchanged.  Otherwise the two graphs are joined into a single 1PI
    tadpole: the leg end of the second becomes an internal vertex inserted
    after the first's leg vertex, and either the first is a single vertex
    (which subdivides the marked edge together with its leg) or the vertex
    after the first's leg vertex migrates into the marked edge.  The second
    keeps its vertex names; the first's are shifted past them.
    """
    t2, d = marked
    if d == LEG_END:
        return (t1, t2)
    if d not in t2.succ:
        raise ValueError("the marked vertex is not in the second tadpole")
    offset = max(t2.succ) + 1 - min(0, *t1.succ)  # t1's names land above t2's
    succ = dict(t2.succ)
    succ.update((v + offset, w + offset) for v, w in t1.succ.items())
    boson = dict(t2.boson)
    boson.update((v + offset, w + offset) for v, w in t1.boson.items())
    u2 = max(t1.succ) + offset + 1
    v1 = t1.leg + offset
    _psi_move(succ, v1, u2, d)
    boson[u2], boson[t2.leg] = t2.leg, u2
    return TadpoleGraph(succ, boson, v1)


def _psi_move(succ, v1: int, u2: int, d: int) -> tuple[int, ...]:
    """psi's move on the successors of both parts: u2 replaces v1's successor
    w, which moves after d, or v1 then u2 go after d if v1 is alone.
    Returns the vertices whose successors it sets."""
    e, w = succ[d], succ[v1]
    if w == v1:
        succ[d], succ[v1], succ[u2] = v1, u2, e
    else:
        succ[v1], succ[u2], succ[d], succ[w] = u2, succ[w], w, e
    return v1, u2, d, w


def psi_inv(obj):
    """Inverse of psi.  A pair maps to the pair with the leg-end mark; a
    single tadpole is split back into (t1, (t2, d)).  The tadpole must be
    1PI and not the one-vertex one, which is exactly the image of psi on
    vertex marks.  Vertex names of t2 and the mark d are preserved."""
    if isinstance(obj, tuple):
        t1, t2 = obj
        return (t1, (t2, LEG_END))
    if obj.is_single_vertex():
        raise ValueError("the one-vertex tadpole is not in the image")
    if not obj.is_one_particle_irreducible():
        raise ValueError("only 1PI tadpoles are in the image of psi")
    succ, boson, leg = dict(obj.succ), dict(obj.boson), obj.leg
    d, v2, part2 = _split(succ, {w: v for v, w in succ.items()}, boson, leg)
    w = succ[leg]
    succ[w] = succ.pop(w)  # t1 lists w, the vertex psi moved, last
    t1, t2 = (
        TadpoleGraph(
            {v: u for v, u in succ.items() if v in part},
            {v: u for v, u in boson.items() if v in part},
            root,
        )
        for part, root in ((succ.keys() - part2, leg), (part2, v2))
    )
    return (X_TADPOLE if w == leg else t1, (t2, d))


def _split(succ, pred, boson, leg):
    """psi_inv of the 1PI part at leg with more than one vertex, unchecked
    and in place.  Cut t2's leg end a out from after leg, leaving Gamma.
    The block of v2, a's boson partner, in Gamma is t2's part and the
    vertex w that psi moved onto the marked edge: leg when t1 is the single
    vertex, else the one whose boson leaves the block.  Close the marked
    edge d -> e over w, then put w back after leg, or leave leg a one-vertex
    loop, so the parts share no edge.  Returns d, v2 and t2's vertices."""
    a = succ[leg]
    succ[leg], v2 = succ.pop(a), boson.pop(a)
    pred[succ[leg]] = leg
    del pred[a], boson[v2]
    block = _block(succ, pred, boson, v2)
    [w] = [leg] if leg in block else [v for v in block if boson.get(v, v) not in block]
    d, e = pred[w], succ[w]
    succ[d], pred[e] = e, d
    f = leg if w == leg else succ[leg]
    succ[leg], pred[w], succ[w], pred[f] = w, leg, f, w
    block.remove(w)
    return d, v2, block


# -- the edge order and the explicit bijection onto connected diagrams ---------------


def _places(t: TadpoleGraph) -> dict[int, int]:
    """The place of every vertex of t in lambda(t).  A part lists its
    vertices in place order after its leg end, and t = psi(t1, (t2, d))
    lists t2's leg end, the vertex a after t's leg, then t2's list with
    t1's spliced in before d's successor e.  One copy of t's maps is split
    in place, so a part is its leg, and a leaf is a one-vertex loop.  A
    part is split when popped; the join entry below its parts pops them."""
    succ, boson = dict(t.succ), dict(t.boson)
    pred = {w: v for v, w in succ.items()}
    todo, done = [t.leg], []
    while todo:
        leg = todo.pop()
        if type(leg) is tuple:  # (a, d's successor) of a split, below its parts
            (a, e), listed2, listed1 = leg, done.pop(), done.pop()
            i = listed2.index(e)
            done.append([a, *listed2[:i], *listed1, *listed2[i:]])
        elif succ[leg] == leg:
            done.append([leg])
        else:
            a = succ[leg]
            d, v2, _ = _split(succ, pred, boson, leg)
            todo += [(a, succ[d]), v2, leg]
    return {v: place for place, v in enumerate(done[0], 1)}


def psi_order(t: TadpoleGraph) -> dict[int, int]:
    """Rank of every fermion edge, keyed by its source vertex, in the order
    induced by the recursive decomposition, from 1 for the leg vertex's edge
    to 2*loops - 1: the place in lambda(t) of the vertex the edge enters."""
    place = _places(t)
    return {v: place[w] for v, w in t.succ.items()}


def _chord_form(m: int, leg: int, pairs) -> ChordDiagram:
    """The diagram on m endpoints with the root chord from 0 to leg and one
    chord per pair, the pairs and the leg covering 1..m-1 once."""
    p = [0] * m
    p[0], p[leg] = leg, 0
    for a, b in pairs:
        p[a], p[b] = b, a
    return _trusted(tuple(p))


def _to_tadpole(c: ChordDiagram) -> TadpoleGraph:
    """lambda^-1 of a connected diagram, unchecked: one sweep over the chords
    by decreasing opener, a vertex named by its endpoint, its place.  The
    stack holds the components present, least opener on top, as their
    endpoints in order and their vertices in psi's naming order.  A chord
    (a, b) joins those it crosses, innermost first, each as t2 in psi(t1,
    (t2, d)), u2 its least opener: b's part t1 lies in one gap of t2, and d
    precedes t2's first endpoint after it.  The bosons are c's chords."""
    succ, pred, stack = [*range(2 * c.n)], [*range(2 * c.n)], []
    for a, b in reversed(c.chords()):
        ends, order, popped = [b], [b], []
        while stack and stack[-1][0][0] < b:
            popped.append(stack.pop())
        for ends2, order2 in reversed(popped):
            if ends2[-1] < b:  # inside (a, b): back on the stack
                stack.append((ends2, order2))
                continue
            i = bisect(ends2, b)
            for v in _psi_move(succ, b, ends2[0], pred[ends2[i]]):
                pred[succ[v]] = v
            ends, order = [*ends2[:i], *ends, *ends2[i:]], [*order2, *order, ends2[0]]
        stack.append(([a, *ends], order))
    name, leg = {v: i for i, v in enumerate(order)}, c.partners[0]  # order is the root's
    boson = {name[v]: name[c.partners[v]] for v in order if v != leg}
    return TadpoleGraph({i: name[succ[v]] for i, v in enumerate(order)}, boson, name[leg])


def tadpole_to_diagram(t: TadpoleGraph) -> ChordDiagram:
    """The recursive size-preserving bijection onto connected diagrams: the
    one-vertex tadpole maps to the single chord, and otherwise the two parts
    of the decomposition are mapped and recombined through the root-share
    composition at the interval given by the marked vertex's edge rank."""
    if not t.is_one_particle_irreducible():
        raise ValueError("only connected 1PI tadpoles correspond to connected diagrams")
    place = _places(t)
    pairs = ((place[v], place[w]) for v, w in t.boson.items() if v < w)
    return _chord_form(len(place) + 1, place[t.leg], pairs)


def diagram_to_tadpole(d: ChordDiagram) -> TadpoleGraph:
    """Inverse of tadpole_to_diagram."""
    if not d.is_connected():
        raise ValueError("only connected diagrams correspond to tadpoles")
    return _to_tadpole(d)


lambda_bij = tadpole_to_diagram


# -- vertex graphs without fermion loops ----------------------------------------------


@dataclass(frozen=True)
class QQEDVertexGraph:
    """A vertex graph of the quenched theory: one directed fermion path
    through all vertices (positions 1..2n-1 along the path), a photon
    matching on the path vertices, and the external photon leg at one of
    them.  Positions along one path leave no room for a fermion loop."""

    path_length: int
    photons: tuple[tuple[int, int], ...]  # (smaller, larger) positions
    leg_at: int

    def __post_init__(self):
        positions = set(range(1, self.path_length + 1))
        used = {self.leg_at}
        if self.leg_at not in positions:
            raise ValueError("leg position out of range")
        for a, b in self.photons:
            if not (a in positions and b in positions) or a >= b:
                raise ValueError("bad photon pair")
            if a in used or b in used:
                raise ValueError("photon ends must be distinct vertices")
            used.update((a, b))
        if used != positions:
            raise ValueError("every vertex carries exactly one photon end or the leg")

    @property
    def loop_number(self) -> int:
        return len(self.photons) + 1


def vertex_graph_to_diagram(g: QQEDVertexGraph) -> ChordDiagram:
    """Straighten the fermion path and pull the photon leg to the front as
    the root: position 0 is the root's near end, path vertex i sits at
    position i, and photons become the remaining chords."""
    return _chord_form(g.path_length + 1, g.leg_at, g.photons)


def qqed_primitive(g: QQEDVertexGraph) -> bool:
    """No subdivergences: equivalent to 2-connectivity of the chord form."""
    return vertex_graph_to_diagram(g).is_k_connected(2)


def enumerate_vertex_graphs(loop_number: int) -> Iterator[QQEDVertexGraph]:
    """All vertex graphs with the given loop number: a leg position on a
    path of 2*loop_number - 1 vertices plus a photon matching of the rest,
    read off the chord diagrams on loop_number chords (the chord at 0 goes
    to the leg, the others are the photons)."""
    for d in enumerate_diagrams(loop_number) if loop_number else ():
        (_, leg), *photons = d.chords()
        yield QQEDVertexGraph(2 * loop_number - 1, tuple(photons), leg)


# -- series identities -----------------------------------------------------------------


def composed_two_connected_kernel(order: int) -> FormalPowerSeries:
    """[C2(t)/t^2] evaluated at t = C^2/x; the common kernel of the vertex
    and propagator Green function identities."""
    c = connected_series(order + 1)
    u = fps.divide_by_power(c * c, 1)
    kernel = fps.divide_by_power(two_connected_series(order + 2), 2)
    return kernel.compose(u.truncate(order))


def vacuum_series(order: int) -> FormalPowerSeries:
    """V = C^2/(2x): 1PI vacuum graphs by boson edge count."""
    c = connected_series(order + 1)
    return fps.divide_by_power(c * c, 1) / 2


def two_leg_series(order: int) -> FormalPowerSeries:
    """U20 = x(2xC' - C): tadpoles with a second marked boson leg."""
    c = connected_series(order)
    return fps.multiply_by_power(2 * c.x_derivative() - c, 1).truncate(order)


def fermion_pair_series(order: int) -> FormalPowerSeries:
    """U01 = 2xC' - C: graphs with the two fermion legs and no boson leg."""
    c = connected_series(order)
    return 2 * c.x_derivative() - c


def vertex_residue_series(order: int) -> FormalPowerSeries:
    """U11 = x [C2(t)/t^2]|_{t=C^2/x}: vertex-residue graphs by boson count."""
    if order == 0:
        return fps.zero(0)
    return fps.multiply_by_power(composed_two_connected_kernel(order - 1), 1)


# The classical-order entries of the two-point rows are fixed by the Green
# function conventions (the free part contributes -1) and are not counts.
TWO_POINT_CLASSICAL_TERM = Fraction(-1)


def proper_green_function_table(order: int) -> dict[str, list[Fraction]]:
    """The five rows of proper Green functions, graded by loop number.

    vacuum row n: [x^(n-1)] C^2/2x; tadpole row: C_n; the two two-point rows:
    -1 at degree 0, then [x^n](2xC' - C); vertex row: [x^n] of the composed
    kernel.  (The two-point rows get the conventional -1 classical term.)
    """
    rows: dict[str, list[Fraction]] = {}
    v = vacuum_series(order)
    rows["vacuum"] = [Fraction(0)] + [v[n - 1] for n in range(1, order + 1)]
    c = connected_series(order)
    rows["tadpole"] = [c[n] for n in range(order + 1)]
    u = fermion_pair_series(order)
    two_point = [TWO_POINT_CLASSICAL_TERM] + [u[n] for n in range(1, order + 1)]
    rows["two_boson_legs"] = list(two_point)
    rows["two_fermion_legs"] = list(two_point)
    kernel = composed_two_connected_kernel(order)
    rows["vertex"] = [kernel[n] for n in range(order + 1)]
    return rows


def _id_vacuum(order):
    """C - x = 2x^2 V' for V = C^2/(2x)."""
    v = vacuum_series(order + 1)
    lhs = connected_series(order + 1) - fps.x(order + 1)
    return lhs, 2 * fps.multiply_by_power(v.derivative(), 2)


def _id_two_leg_kernel(order):
    """x(2xC' - C) = C^2 [C2(t)/t^2]|_{t=C^2/x}."""
    c = connected_series(order)
    return two_leg_series(order), c * c * composed_two_connected_kernel(order)


def _id_tadpoles_from_fermion_pair(order):
    """T = x/(1 - U01) reproduces C."""
    u01 = fermion_pair_series(order)
    return connected_series(order), fps.multiply_by_power(fps.reciprocal(1 - u01), 1)


def _id_vertex_residue(order):
    """U11 C^2 = x U20."""
    c = connected_series(order)
    lhs = vertex_residue_series(order) * c * c
    return lhs, fps.multiply_by_power(two_leg_series(order), 1)


def _id_fermion_pair_unmarked(order):
    """The no-boson-leg series is the two-leg series with the mark removed."""
    return fermion_pair_series(order), fps.divide_by_power(two_leg_series(order + 1), 1)


MAX_GREEN_ORDER = 32  # cap for the Green-function identities

GREEN_IDENTITIES = {
    "vacuum_from_marked_tadpoles": _id_vacuum,
    "two_leg_kernel_route": _id_two_leg_kernel,
    "tadpoles_from_fermion_pair_insertions": _id_tadpoles_from_fermion_pair,
    "vertex_residue_exchange": _id_vertex_residue,
    "fermion_pair_equals_two_leg_unmarked": _id_fermion_pair_unmarked,
}


def green_identities(order: int) -> list[IdentityReport]:
    """Exact checks of the series identities behind the table above."""
    _check_order(order, cap=MAX_GREEN_ORDER)
    return [_compare(name, order, *sides(order)) for name, sides in GREEN_IDENTITIES.items()]
