"""Rooted chord diagrams as matchings of {1,...,2n}, with brute-force
enumeration and the structural predicates used everywhere else.

A diagram is stored as the partner array of a fixed-point-free involution,
0-indexed internally; the textual literal "n: p1 p2 ... p2n" is 1-indexed.
The chord containing endpoint 1 is the root.  Intervals are the spaces to
the right of each endpoint (2n of them, the last one included).

Intersection-graph components come from one O(n) scan of the endpoints
with a stack of blocks, each holding its lowest opener and its number of
open chords (`crossing_scan`).  An opener pushes a block; a closer crosses
every chord open in the blocks above its own, so they merge into its block
before its count drops by one, and a block whose count reaches 0 is done.
Every reader of the components takes the list `crossing_scan` returns,
but `ChordDiagram.is_connected`: its copy stops at the first block done.

`census` counts every class in one pruned depth-first search, which also
lists a class (`connectivity_class`).  It visits exactly the connected
diagrams: a subtree whose free endpoints are consecutive, with every
pending closer after them, is disconnected in every leaf (they pair among
themselves, the root outside them), and each disconnected diagram has such
a subtree or a cut-0 window ending before its last opener, where the scan
sees it.  So no window of cut 0 ends after the last opener.  For n >= 7
the search is cut at the nodes that place the third chord, numbered in
search order; shard w of W takes the nodes numbered w mod W, and shard 0
alone counts the subtrees settled above them.  The caller runs shard 0 and
forks one worker per other shard, W being the CPUs this process may use,
at most 2**(n-6).  At n <= 6 two forks cost more than they save, and with
one CPU or without `os.fork` the same search runs whole in this process.

>>> d = ChordDiagram.from_literal("2: 3 4 1 2")   # the crossing pair
>>> d.is_connected(), d.connectivity(), d.is_indecomposable()
(True, 2, True)
>>> sum(1 for _ in enumerate_diagrams(4))
105
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Sequence

DEFAULT_MAX_N = 10
_NAMES = tuple(map(str, range(1, 257)))  # the 1-based endpoint names of up to 128 chords


def size_guard(default: int) -> int:
    """The size guard set by CHORDLAB_MAX_N, or `default` when it is unset."""
    env = os.environ.get("CHORDLAB_MAX_N")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CHORDLAB_MAX_N must be an integer, got {env!r}") from None


def check_size(n: int) -> None:
    """Reject a negative diagram size, or one above the enumeration guard."""
    limit = size_guard(DEFAULT_MAX_N)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise ValueError(f"n={n} exceeds the enumeration guard ({limit}); "
                         "set CHORDLAB_MAX_N to raise it")


class ChordDiagram:
    """A perfect matching of {1,...,2n} with the root at endpoint 1."""

    __slots__ = ("partners",)

    def __init__(self, partners: Sequence[int]):
        p = tuple(partners)
        m = len(p)
        if m % 2:
            raise ValueError("a diagram has an even number of endpoints")
        for i, q in enumerate(p):
            if not 0 <= q < m or q == i or p[q] != i:
                raise ValueError("partner array is not a fixed-point-free involution")
        object.__setattr__(self, "partners", p)

    def __setattr__(self, name, value):
        raise AttributeError("ChordDiagram is immutable")

    @property
    def n(self) -> int:
        return len(self.partners) // 2

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, ChordDiagram) and self.partners == other.partners

    def __hash__(self) -> int:
        return hash(self.partners)

    def __repr__(self) -> str:
        return f"ChordDiagram({self.to_literal()!r})"

    # -- text form ----------------------------------------------------------

    @classmethod
    def from_literal(cls, text: str) -> "ChordDiagram":
        """Parse "n: p1 p2 ... p2n" (1-indexed partner list)."""
        head, _, body = text.partition(":")
        try:
            n = int(head)
            vals = [int(t) for t in body.split()]
            if n < 0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"chord diagram literal must have the form 'n: p1 ... p2n', got {text!r}"
            ) from None
        if len(vals) != 2 * n:
            raise ValueError(
                f"chord diagram literal {text!r} has {len(vals)} partners, expected {2 * n}"
            )
        try:
            return cls([v - 1 for v in vals])
        except ValueError as exc:
            raise ValueError(f"chord diagram literal {text!r}: {exc}") from None

    def to_literal(self) -> str:
        p = self.partners
        names = _NAMES if len(p) <= len(_NAMES) else tuple(map(str, range(1, len(p) + 1)))
        return f"{len(p) // 2}: {' '.join([names[q] for q in p])}" if p else "0:"

    # -- chords and crossings -------------------------------------------------

    def chords(self) -> list[tuple[int, int]]:
        """Chords as 0-indexed (a, b) with a < b, sorted by first endpoint."""
        return [
            (i, q) for i, q in enumerate(self.partners) if i < q
        ]

    def components(self) -> list[frozenset[int]]:
        """Connected components of the intersection graph (chord indices),
        ordered by smallest endpoint."""
        index = dict(zip([a for a, q in enumerate(self.partners) if q > a], range(self.n)))
        return [frozenset(map(index.get, b)) for b in sorted(crossing_blocks(self.partners))]

    # -- connectivity ---------------------------------------------------------

    def is_connected(self) -> bool:
        """True when the first block of the `crossing_scan` to finish holds every chord."""
        p = self.partners
        blocks: list[tuple[int, int]] = []  # (lowest opener, open chords)
        for j, q in enumerate(p):
            if q > j:
                blocks.append((j, 1))
                continue
            low, count = blocks.pop()
            while low > q:
                low, below = blocks.pop()
                count += below
            if count == 1:
                return j == len(p) - 1
            blocks.append((low, count - 1))
        return False

    def connectivity(self) -> int:
        """Largest k such that the diagram is k-connected.

        Computed as the minimum, over windows of consecutive endpoints that
        contain a full chord and whose complement contains a full chord, of
        the number of chords crossing the window boundary; if no such window
        exists the diagram cannot be disconnected by deletions and the
        connectivity is n.  Equals the least number of chords whose deletion
        disconnects the intersection graph.
        """
        return _window_cuts(self.partners)[0]

    def is_k_connected(self, k: int) -> bool:
        return self.connectivity() >= k

    def is_indecomposable(self) -> bool:
        """True unless the diagram is a concatenation of smaller ones."""
        return first_block_end(self.partners) is None


_set_partners = ChordDiagram.partners.__set__


def _trusted(partners: tuple[int, ...]) -> ChordDiagram:
    """The diagram of a partner tuple the library built as a matching itself,
    without the endpoint checks (a fifth of the cost of `ChordDiagram(...)`)."""
    d = object.__new__(ChordDiagram)
    _set_partners(d, partners)
    return d


def crossing_scan(partners: Sequence[int], skip: int = -1) -> list[tuple[int, int, bool]]:
    """The stack scan of the module docstring over every chord but the one
    opening at `skip`: (low, j, nested) for each component, in the order
    they finish.  low is its lowest opener, j its last endpoint, and nested
    says whether blocks stay open below it, that is, whether another chord
    spans it.

    >>> crossing_scan(ChordDiagram.from_literal("3: 6 4 5 2 3 1").partners)
    [(1, 4, True), (0, 5, False)]
    >>> crossing_scan(ChordDiagram.from_literal("3: 4 6 5 1 3 2").partners, skip=0)
    [(2, 4, True), (1, 5, False)]
    """
    blocks: list[tuple[int, int]] = []  # (lowest opener, open chords)
    out = []
    for j, q in enumerate(partners):
        if q > j:
            if j != skip:
                blocks.append((j, 1))
        elif q != skip:
            low, count = blocks.pop()
            while low > q:
                low, below = blocks.pop()
                count += below
            if count > 1:
                blocks.append((low, count - 1))
            else:
                out.append((low, j, bool(blocks)))
    return out


def crossing_blocks(partners: Sequence[int], skip: int = -1) -> Iterator[list[int]]:
    """Each component of `crossing_scan`, as the increasing endpoints where
    its chords open, when it finishes (sorted: chord-index order): the
    openers in its span not taken by a component that finished earlier."""
    pending: list[int] = []  # openers before x not yet in a block
    x = 0
    for low, j, _ in crossing_scan(partners, skip):
        pending += [a for a in range(x, j) if partners[a] > a and a != skip]
        x = j
        i = bisect_left(pending, low)
        yield pending[i:]
        del pending[i:]


def first_block_end(partners: Sequence[int]) -> int | None:
    """End of the shortest proper prefix of endpoints that pairs internally,
    or None when there is none (the diagram is indecomposable)."""
    run_max = -1
    for j in range(len(partners) - 1):
        q = partners[j]
        if q > run_max:
            run_max = q
        if run_max == j:
            return j
    return None


def _window_cuts(partners: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
    """The least cut over separating windows (ChordDiagram.connectivity), and
    the separating windows [i, j] crossed by one chord, in (i, j) order.

    Only windows ending at a closer paired inside are tested: `census` shows
    that minimal separating windows do, and when the least cut is 1 so does
    every cut-1 window, as dropping any other last endpoint leaves cut 0."""
    m = len(partners)
    best = m // 2
    ones = []
    for i in range(m):
        out = 0
        for j in range(i, m):
            q = partners[j]
            if i <= q < j:
                out -= 1
                if out <= best and m - j + i - out > 2:
                    if not out:
                        return 0, []
                    best = out
                    if out == 1:
                        ones.append((i, j))
            else:
                out += 1
    return best, ones


@dataclass(frozen=True)
class Reason:
    """A consecutive endpoint window certifying connectivity 1.

    `window` is the 1-indexed inclusive (start, end); all its endpoints pair
    internally except one endpoint of the cut chord, whose deletion
    disconnects the diagram.
    """

    window: tuple[int, int]
    cut_chord: int


@dataclass(frozen=True)
class ReasonReport:
    connectivity_one: bool
    reasons: tuple[Reason, ...]


def reasons_and_cuts(d: ChordDiagram) -> ReasonReport:
    """All reasons (windows with exactly one boundary-crossing chord and at
    least one internal chord) of a connectivity-1 diagram, with their cuts.

    For a diagram whose connectivity is not 1 the report carries an empty
    list and is flagged via `connectivity_one=False`.
    """
    best, ones = _window_cuts(d.partners)
    if best != 1:
        return ReasonReport(False, ())
    # xor[k]: the XOR of the chord indices of the endpoints before k.  A chord
    # with both ends in a window cancels out, so a cut-1 window leaves the
    # index of its cut chord.
    xor, index = [0], {}  # index: chord index by opener
    for j, q in enumerate(d.partners):
        xor.append(xor[-1] ^ index.setdefault(min(j, q), len(index)))
    return ReasonReport(True, tuple(
        Reason((i + 1, j + 1), xor[j + 1] ^ xor[i]) for i, j in ones))


def _contains(r: Reason, s: Reason) -> bool:
    """True when the window of r holds that of another reason s."""
    return s != r and r.window[0] <= s.window[0] and s.window[1] <= r.window[1]


def minimal_reasons(report: ReasonReport) -> tuple[Reason, ...]:
    """Reasons that contain no other reason."""
    return tuple(r for r in report.reasons
                 if not any(_contains(r, s) for s in report.reasons))


def maximal_reasons(report: ReasonReport) -> tuple[Reason, ...]:
    """Reasons contained in no other reason."""
    return tuple(r for r in report.reasons
                 if not any(_contains(s, r) for s in report.reasons))


# -- enumeration ---------------------------------------------------------------


def enumerate_diagrams(n: int) -> Iterator[ChordDiagram]:
    """All (2n-1)!! diagrams on n chords, in the deterministic order given by
    always matching the smallest free endpoint with its partner increasing.

    The last two chords are settled in place: at the four free endpoints
    a < b < c < d left, ab|cd, ac|bd and ad|bc are written in turn, the
    order in which a takes its partners, and the last pair is forced.

    >>> [d.to_literal() for d in enumerate_diagrams(2)]
    ['2: 2 1 4 3', '2: 3 4 1 2', '2: 4 3 2 1']
    """
    check_size(n)
    if n <= 1:
        yield _trusted((1, 0) if n else ())
        return
    m = 2 * n
    p = [-1] * m
    placed: list[int] = []  # openers of the placed chords, in placing order
    i = j = 0  # i is the least free endpoint, tried with the free ones after j
    while True:
        if len(placed) == n - 2:  # four free endpoints left, i the least
            b = i + 1
            while p[b] >= 0:
                b += 1
            c = b + 1
            while p[c] >= 0:
                c += 1
            d = c + 1
            while p[d] >= 0:
                d += 1
            p[i], p[b], p[c], p[d] = b, i, d, c
            yield _trusted(tuple(p))
            p[i], p[b], p[c], p[d] = c, d, i, b
            yield _trusted(tuple(p))
            p[i], p[b], p[c], p[d] = d, c, b, i
            yield _trusted(tuple(p))
            p[i] = p[b] = p[c] = p[d] = -1
        else:
            j += 1
            while j < m and p[j] >= 0:
                j += 1
            if j < m:
                p[i], p[j] = j, i
                placed.append(i)
                while p[i] >= 0:
                    i += 1
                j = i
                continue
        if not placed:
            return
        i = placed.pop()
        j = p[i]
        p[i] = p[j] = -1


def indecomposable_completions(size: int) -> list[list[int]]:
    """g[a][b] for a + b <= size: the perfect matchings of a + b points in a
    row that leave no closed prefix of a + s points for any s < b.

    A matching whose first closed prefix (among the lengths a + s) has
    a + s points is one counted by g[a][s] followed by any matching of the
    other b - s points, so g[a][b] is all (a+b-1)!! matchings minus
    g[a][s] * (b-s-1)!! for each s < b.  In `census` the a + b points are
    the free endpoints of a partial diagram, b of them after its last
    pending closer and a before it: every prefix that ends before that
    closer holds its opener but not the closer, so the completion is
    indecomposable exactly when none of these prefixes closes.
    """
    matchings = [1, 0]  # matchings[k] = (k-1)!! for even k, 0 for odd k
    for k in range(2, size + 1):
        matchings.append((k - 1) * matchings[k - 2])
    g = []
    for a in range(size + 1):
        row: list[int] = []
        for b in range(size + 1 - a):
            row.append(matchings[a + b]
                       - sum(row[s] * matchings[b - s] for s in range(b)))
        g.append(row)
    return g


@dataclass(frozen=True)
class Census:
    total: int
    connected: int
    two_connected: int
    connectivity_one: int
    indecomposable_nonempty: int


def census(n: int) -> Census:
    """Count diagrams on n chords by connectivity class and indecomposability
    in one enumeration pass (no diagram objects are materialised).

    The enumeration is the one of `enumerate_diagrams`; its depth-first
    search carries the classification down the tree.  Invariant: when the
    endpoints before the scan position k are fixed, `cuts` holds the
    crossing count of every window [a, k-1], a < k, one bit field per start
    a of a single int; `run_max` is the largest partner scanned (a block
    ends at the first closer j < 2n-1 with run_max == j); `best` is the
    connectivity so far, capped at 2; and `block` says whether a block end
    has been seen.  A node scans only the endpoints it fixes: its opener and
    the closers that follow it, those before its next free endpoint once for
    all its partners.

    Only windows that end at a closer whose partner lies inside can be
    minimal separating windows (those `_window_cuts` minimises over):
    dropping a last endpoint that is an opener, or a closer paired outside
    the window, lowers the cut by one and keeps a full chord inside.  So a
    window is tested once, when the closer that ends it is scanned.

    A subtree whose leaves are all disconnected is counted without being
    visited: it adds (2r-1)!! diagrams for its r chords left, and, when no
    block end has been seen, g[a][b] indecomposable ones from the table of
    `indecomposable_completions`, where b = 2n-1-run_max free endpoints
    follow the last pending closer and a = 2r-b precede it.  Two facts make
    the leaves visited exactly the connected diagrams:

    1. Where a scan stops at the free endpoint i with r chords left and
       every pending closer lies after the 2r free endpoints, the window
       i..i+2r-1 pairs internally and the root chord lies outside it, so
       every leaf below is disconnected.  One test finds it: a bit field
       of the placed closers has no bit in i..i+2r-1.  Every disconnected
       diagram meets this or is disconnected before its last chord: a
       closed separating window either ends before the last opener, at a
       closer the scan tests, or only closers follow it.  Then it holds
       every opener from its first endpoint a on, so where the scan stops
       at a the rest of the window is free and the pending closers follow
       it; a > 0, as a closed window from 0 followed only by closers would
       be the whole diagram.
    2. So once the last chord is placed, the closers after its opener end
       no window of cut 0 (by 1), and no block, as the closer at 2n-1 is
       placed and run_max = 2n-1.  A leaf already at connectivity 1 is
       booked without scanning them; a 2-connected one scans them only for
       a window of cut 1 (3 or more endpoints outside) and stops at the
       first.

    A node with two chords left settles the last chord in its own loop and
    books the leaf without a call (at n = 7 the search makes 27,543 calls
    and visits 38,232 leaves).  Given a leaf sink, the same search lists the
    classes it keeps (`connectivity_class`), skipping every subtree below
    the least of them: capped connectivity only falls with depth.

    For n >= 7 the search is split into shards run in parallel, one per
    CPU this process may use and at most 2**(n-6) (`_census_shards`).  The
    nodes that place the third chord are numbered in search order, and
    shard w descends only into those numbered w modulo the shard count;
    the subtrees counted above them without a visit are counted by shard 0
    alone.  The caller runs shard 0 and forks a worker for each other
    shard (`_sum_over_forks`).  At n <= 6 a fork (~1.8 ms on a 2-core Xeon
    guest) costs more than it saves: census(6) took 6-11 ms whole, and over
    two shards 1.35 times as long in four runs of 101 alternated pairs
    (0.81 times in a fifth, when the second core was free).  So there the
    search runs whole in this process, as it does with one CPU or where
    `os.fork` or `os.sched_getaffinity` is missing.
    """
    check_size(n)
    if n == 0:
        return Census(1, 0, 0, 0, 0)
    shards = _census_shards(n)
    return Census(*_sum_over_forks(_census_search(n, shards), shards))


def connectivity_class(n: int, levels: Collection[int]) -> list[ChordDiagram]:
    """The diagrams on n chords whose connectivity, capped at 2, lies in
    levels, in the order of `enumerate_diagrams`: the leaves that the
    census search, run whole, keeps for them (see `census`)."""
    check_size(n)
    if not n:
        return [ChordDiagram(())] * (0 in levels)
    diagrams: list[ChordDiagram] = []
    keep = tuple(c in levels for c in range(3))
    _census_search(n, 1, keep, lambda p: diagrams.append(_trusted(tuple(p))))(0)
    return diagrams


def _census_shards(n: int) -> int:
    """How many processes share census(n); see its docstring."""
    if n < 7 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), 1 << n - 6)


def _census_search(n: int, shards: int, keep: Sequence[bool] = (False,) * 3,
                   sink: Callable[[list[int]], None] | None = None) -> Callable[[int], list[int]]:
    """The search of `census` for n >= 1 cut into `shards` shards (n >= 4
    when shards > 1, so that every leaf lies below the split): the returned
    function runs one shard and returns its counts (total, connected,
    2-connected, connectivity 1, indecomposable).

    keep[c] says whether a leaf of capped connectivity c goes to sink, as
    its full partner array; a subtree below the least such c (1 if none) is
    booked without a visit, its connected leaves uncounted."""
    m = 2 * n
    # A count is at most n, so a field's top bit stays free: adding
    # high - 1 - t to a field sets that bit exactly when the field exceeds t.
    width = n.bit_length() + 1
    high = 1 << width - 1
    ones = [0] * (m + 1)  # ones[t]: 1 in each of the fields 0..t-1
    for t in range(m):
        ones[t + 1] = ones[t] | 1 << width * t
    above0 = (high - 1) * ones[m]
    above1 = (high - 2) * ones[m]
    highs = [high * one for one in ones]
    # closers[k][q], for a closer at k paired with q < k: the update of the
    # counts (-1 for a <= q, +1 for q < a < k, field k starts at 1), and the
    # top bits of the starts a <= q whose window [a, k] separates at cut 0
    # (its complement is nonempty) and at cut 1 (3 or more endpoints outside).
    closers = [
        [
            (
                ones[k + 1] - 2 * ones[q + 1],
                highs[q + 1] - highs[k == m - 1],
                highs[q + 1] - highs[min(max(k + 4 - m, 0), q + 1)],
            )
            for q in range(k)
        ]
        for k in range(m)
    ]
    spans = [(1 << 2 * r) - 1 for r in range(n)]  # spans[r]: bits 0..2r-1
    chains = [1] * n  # chains[r] = (2r-1)!!
    for r in range(1, n):
        chains[r] = chains[r - 1] * (2 * r - 1)
    completions = indecomposable_completions(m - 2)
    floor = keep.index(True) if True in keep else 1
    # p[j] = partner of a fixed closer j; openers are not stored, and p[m]
    # stays -1 to end every scan.
    p = [-1] * (m + 1)
    # A node placing a chord with r chords left, itself included, lies
    # above the split when r > split: the first three chords.
    split = n - 3 if shards > 1 else n

    def run(shard: int) -> list[int]:
        counts = [0, 0, 0, 0, 0]  # total, conn, 2conn, conn1, indec
        turn = -1  # number of the last node reached at the split

        def mine(conn: int, r: int) -> bool:
            # Above the split: a pruned subtree is shard 0's, and the nodes
            # at the split go round the shards.
            nonlocal turn
            if not conn:
                return not shard
            if r - 1 > split:
                return True
            turn += 1
            return turn % shards == shard

        # The tables are bound as defaults: a local reads faster than a cell.
        def rec(k: int, cuts: int, run_max: int, block: bool, best: int, r: int,
                placed: int, p=p, closers=closers, ones=ones, above0=above0,
                above1=above1, spans=spans, counts=counts, keep=keep, m=m,
                split=split, floor=floor) -> None:
            # Endpoints before k are scanned; k is the smallest free endpoint,
            # and placed has a bit at each closer placed so far.  The closers
            # between k and the next free endpoint f are the same for every
            # partner j >= f, so they are scanned once per node: the first
            # partner, j = f, stops at f to keep the counts there (c0, conn0)
            # and then scans on past f, now k's closer; every later partner
            # starts at f, where its scan ends.  With two chords left the
            # last one is settled here: it opens at the next free endpoint
            # and closes at the only other one.
            f = 0  # until the first partner has scanned up to f
            for j in range(k + 1, m):
                if p[j] >= 0:
                    continue
                top = j if j > run_max else run_max
                if f:
                    p[j] = k
                    c, conn, i, has_block = c0, conn0, f, block
                else:
                    # The opener at k adds 1 to every window and starts field k at 1.
                    c = cuts + ones[k + 1] if best else cuts
                    conn = best
                    i = k + 1
                    while True:  # up to f with f free, then on with f closing k
                        while (q := p[i]) >= 0:
                            if conn:
                                step, mask0, mask1 = closers[i][q]
                                c += step
                                x = c + above1
                                if x & mask0 != mask0:  # a window in mask0 has cut <= 1
                                    if (c + above0) & mask0 != mask0:
                                        conn = 0
                                    elif conn == 2 and x & mask1 != mask1:
                                        conn = 1
                            i += 1
                        if f:
                            break
                        f, c0, conn0 = i, c, conn
                        p[j] = k
                    # A block ends at top if the scan passed it (top > k);
                    # a later partner's scan stops at f <= j <= top.
                    has_block = block or top < i and top < m - 1
                last = j  # the closer of the last chord, once settled here
                if i < m:
                    # Fact 1 of `census`: no placed closer among the 2r - 2
                    # endpoints from i, so these free ones close a window.
                    now_placed = placed | 1 << j
                    if not now_placed >> i & spans[r - 1]:
                        conn = 0
                    if r > split and not mine(conn, r):
                        pass
                    elif conn < floor:
                        counts[0] += chains[r - 1]
                        if not has_block:
                            b = m - 1 - top
                            counts[4] += completions[2 * r - 2 - b][b]
                    elif r > 2:
                        rec(i, c, top, has_block, conn, r - 1, now_placed)
                    else:
                        last = i + 1
                        while p[last] >= 0:
                            last += 1
                        p[last] = i
                        if conn == 2:
                            # Fact 2: the closers after i can end only a cut-1 window.
                            c += ones[i + 1]
                            for t in range(i + 1, m):
                                step, _, mask1 = closers[t][p[t]]
                                c += step
                                if (c + above1) & mask1 != mask1:
                                    conn = 1
                                    break
                        i = m
                if i == m:
                    counts[0] += 1
                    if not has_block:
                        counts[4] += 1
                    if conn:
                        counts[1] += 1
                        counts[2 if conn == 2 else 3] += 1
                    if keep[conn]:
                        full = p[:m]
                        for a, q in enumerate(p):
                            if q >= 0:
                                full[q] = a
                        sink(full)
                p[last] = p[j] = -1

        rec(0, 0, -1, False, min(n, 2), n, 0)
        return counts

    return run


def _sum_over_forks(run: Callable[[int], list[int]], shards: int) -> list[int]:
    """The sum of run(w) over the shards w: shard 0 runs here, every other in
    a worker forked for it, which sends its counts down a pipe and leaves by
    os._exit (no stdio flush, no atexit handler).  Every worker is reaped
    before this returns or raises; a worker that fails raises here."""
    workers: list[tuple[int, int, int]] = []  # (shard, pid, read end of its pipe)
    try:
        for shard in range(1, shards):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        reply = " ".join(map(str, run(shard)))
                        status = 0
                    except BaseException as exc:
                        reply = repr(exc)
                    os.write(write_fd, reply.encode()[:4096])  # <= PIPE_BUF: arrives whole
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((shard, pid, read_fd))
        totals = run(0)
        while workers:
            shard, pid, read_fd = workers[0]
            reply = os.read(read_fd, 4096).decode(errors="replace")  # b"" if none came
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            os.close(read_fd)
            if code:
                raise RuntimeError(f"census worker for shard {shard} failed "
                                   f"(exit code {code}): {reply}")
            totals = [a + int(b) for a, b in zip(totals, reply.split())]
        return totals
    finally:
        if workers:
            import signal  # ~1 ms to import, needed only on this path
        for shard, pid, read_fd in workers:
            os.close(read_fd)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
