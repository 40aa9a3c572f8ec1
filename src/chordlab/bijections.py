"""Executable bijections between diagram classes.

* the root-share decomposition `nabla` of a connected diagram into two
  smaller connected diagrams plus an interval index, and its inverse;
* `phi`, turning a connected diagram on >= 2 chords into an indecomposable
  diagram with exactly two components (and back);
* `theta`, the queue algorithm turning a (root chord, left diagram, right
  diagram) triple into a rooted tree of label stacks whose vertices carry an
  at-most-two-component diagram over their children (and back).

nabla and phi read the root share decomposition off the components that
`crossing_scan` lists without the root, which leave c1 between the first k
and the other endpoints of c2.  So phi is one endpoint move, the root's
opener to slot k, and phi_inv moves the inner component's first opener to
the front, read off one more scan; nabla and its inverse write their
arrays through one table of new positions.  Their outputs relabel
validated diagrams, so like the lists of `enumerate_diagrams` they skip
the checks `ChordDiagram(...)` runs on arrays from outside.

theta works on runs lo..hi-1 of endpoints of the seed's two partner
arrays; the label at each endpoint (its token) tracks chord identity.  A
chord in a run crosses no chord outside it, so a run is a union of
components, and its root component is the one whose lowest opener is the
run's first endpoint.  `crossing_scan` lists where each component of a
side ends, and `_split` reads a root component off from its first
endpoint, skipping each component nested in one of its gaps; the runs
between its ends are the dangling diagrams.
Only a vertex structure is built as a new array, with its labels, and
like the seeds of `TreeSeed.from_diagrams` it skips the checks of
`LabeledDiagram(...)`.  theta_inv reads each structure's shape off the
components `ZTreeVertex.validate` lists, hangs the sides of each child into
its parent's by reference, and writes the labels of the two sides once
(`_flatten`) before `from_tokens` pairs them, checking the labels it is
given.  So both directions take time linear in the number of chords.

Worked example, in the "n: p1 ... p2n" partner-list encoding: the connected
diagram "3: 4 6 5 1 3 2" (chords {1,4},{2,6},{3,5}) has the root share
decomposition (c1, c2, k) = ("2: 3 4 1 2", "1: 2 1", 1), so phi places the
crossing pair inside the first interval of the single chord, giving the
indecomposable two-component diagram {1,6},{2,4},{3,5}:

>>> t = nabla(ChordDiagram.from_literal("3: 4 6 5 1 3 2"))
>>> (t.c1.to_literal(), t.c2.to_literal(), t.k)
('2: 3 4 1 2', '1: 2 1', 1)
>>> phi(ChordDiagram.from_literal("3: 4 6 5 1 3 2")).to_literal()
'3: 6 4 5 2 3 1'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .chord import (
    ChordDiagram,
    _trusted,
    crossing_scan,
    enumerate_diagrams,
)

Token = int  # a chord label; each label occurs at exactly two positions


@dataclass(frozen=True)
class LabeledDiagram:
    diagram: ChordDiagram
    labels: tuple[int, ...]  # one label per chord, in first-endpoint order

    def __post_init__(self):
        if len(self.labels) != self.diagram.n:
            raise ValueError("one label per chord is required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")

    @property
    def n(self) -> int:
        return self.diagram.n

    def tokens(self) -> list[Token]:
        """The label at each endpoint."""
        toks: list[Token] = []
        labels = iter(self.labels)
        for i, q in enumerate(self.diagram.partners):
            toks.append(next(labels) if q > i else toks[q])
        return toks


EMPTY = LabeledDiagram(ChordDiagram(()), ())


_set = object.__setattr__  # sets a field of a frozen dataclass


def _labeled(d: ChordDiagram, labels: tuple[int, ...]) -> LabeledDiagram:
    """The LabeledDiagram of distinct labels, one per chord, that the library
    picked itself, without the checks of `LabeledDiagram(...)`."""
    ld = object.__new__(LabeledDiagram)
    _set(ld, "diagram", d)
    _set(ld, "labels", labels)
    return ld


def from_tokens(tokens: Sequence[Token]) -> LabeledDiagram:
    """The labeled diagram with these endpoint labels; EMPTY for none.  One
    pass pairs the two positions of each label, so the array is a matching
    once no label is left unpaired; a label on two chords is rejected."""
    if not tokens:
        return EMPTY
    first: dict[Token, int] = {}
    p = [0] * len(tokens)
    labels = []
    for pos, lab in enumerate(tokens):
        if lab in first:
            a = first.pop(lab)
            p[a], p[pos] = pos, a
        else:
            first[lab] = pos
            labels.append(lab)
    if first:
        raise ValueError(f"unpaired labels: {sorted(first)}")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    return _labeled(_trusted(tuple(p)), tuple(labels))


def with_fresh_labels(d: ChordDiagram, start: int = 0) -> LabeledDiagram:
    return _labeled(d, tuple(range(start, start + d.n)))


def _move(items: Iterable, a: int, s: int) -> list:
    """The items with the one at index a moved to slot s."""
    out = list(items)
    out.insert(s, out.pop(a))
    return out


def _moved(d: ChordDiagram, a: int, s: int) -> ChordDiagram:
    """d with its endpoint a moved to slot s; rank[old position] is the new."""
    rank = _move(range(len(d.partners)), s, a)
    return _trusted(tuple(_move(map(rank.__getitem__, d.partners), a, s)))


# -- root share decomposition -----------------------------------------------


@dataclass(frozen=True)
class RootShareTriple:
    """Outcome of removing the root from a connected diagram: the remainder
    `c1` (keeping the root), the first component `c2`, and the interval of
    c2 through which the root used to pass (1-based, never the last one).
    A plain record: `nabla_inv` checks the triples it is given."""

    c1: ChordDiagram
    c2: ChordDiagram
    k: int


def _root_share(p: Sequence[int]) -> tuple[int, int]:
    """(k, h) for a partner array p connected on >= 2 chords: with the root
    removed, the component c2 of the chord at endpoint 1 holds the endpoints
    1..k and h+1..2n-1, and c1 is the root with k+1..h.  p is connected when
    every such component straddles the root's closer r (the largest low
    lies before r, the first end after it), and straddling ones nest: c2
    finishes last, just after the outermost of the others (the span of c1
    without its root, or r alone if there is none)."""
    r = p[0] if len(p) > 3 else 0  # 0: fewer than two chords
    ends = crossing_scan(p, skip=0)
    if r and max(ends)[0] < r < ends[0][1]:
        lo, hi, _ = ends[-2] if len(ends) > 1 else (r, r, False)
        return lo - 1, hi
    raise ValueError("root share decomposition needs a connected diagram on >= 2 chords")


def nabla(d: ChordDiagram) -> RootShareTriple:
    p = d.partners
    k, h = _root_share(p)
    g = h - k  # endpoints of c1 after its root
    rank = [0, *range(k), *range(1, g + 1), *range(k, len(p) - 1 - g)]
    at = rank.__getitem__
    c1 = (rank[p[0]], *map(at, p[k + 1:h + 1]))
    c2 = (*map(at, p[1:k + 1]), *map(at, p[h + 1:]))
    return RootShareTriple(_trusted(c1), _trusted(c2), k)


def nabla_inv(t: RootShareTriple) -> ChordDiagram:
    if not (t.c1.is_connected() and t.c2.is_connected()):
        raise ValueError("both parts must be connected and nonempty")
    if not 1 <= t.k <= 2 * t.c2.n - 1:
        raise ValueError(f"interval index {t.k} out of range 1..{2 * t.c2.n - 1}")
    return _root_share_join(t.c1, t.c2, t.k)


def _root_share_join(c1: ChordDiagram, c2: ChordDiagram, k: int) -> ChordDiagram:
    """nabla_inv of (c1, c2, k) without its checks, for parts the caller
    built itself.  Each endpoint moves to its place in the root share
    table, rank[i] for endpoint i of c1 and rank[m1 + i] for c2's, which
    lays out c1's 0, c2's first k, c1's rest, then c2's rest."""
    p1, p2 = c1.partners, c2.partners
    m1, m = len(p1), len(p1) + len(p2)
    rank = [0, *range(k + 1, k + m1), *range(1, k + 1), *range(k + m1, m)]
    at1, at2 = rank.__getitem__, rank[m1:].__getitem__
    return _trusted((at1(p1[0]), *map(at2, p2[:k]), *map(at1, p1[1:]), *map(at2, p2[k:])))


# -- phi ----------------------------------------------------------------------


_NOT_TWO_NESTED = "inverse needs an indecomposable diagram with exactly two components"


def _inner_opener(p: Sequence[int]) -> int:
    """The first opener of the inner component of p, which must be an
    indecomposable partner array with exactly two components: the first of
    two components to finish, nested in the other."""
    ends = crossing_scan(p)
    if len(ends) != 2 or not ends[0][2]:
        raise ValueError(_NOT_TWO_NESTED)
    return ends[0][0]


def phi(d: ChordDiagram) -> ChordDiagram:
    """Connected on >= 2 chords -> indecomposable with two components: the
    root's opener moves to slot k of the root share decomposition."""
    return _moved(d, 0, _root_share(d.partners)[0])


def phi_inv(d: ChordDiagram) -> ChordDiagram:
    """Inverse of phi: pull the inner component's first opener to the front."""
    return _moved(d, _inner_opener(d.partners), 0)


# -- the stack-tree bijection ---------------------------------------------------


@dataclass(frozen=True)
class TreeSeed:
    """A root chord (by label) with a left and a right diagram hanging off
    its two ends; the input of the tree construction."""

    root_label: int
    left: LabeledDiagram
    right: LabeledDiagram

    def __post_init__(self):
        used = {self.root_label, *self.left.labels, *self.right.labels}
        if len(used) != 1 + self.left.n + self.right.n:
            raise ValueError("labels of the seed must be distinct")

    @property
    def size(self) -> int:
        return 1 + self.left.n + self.right.n

    @classmethod
    def from_diagrams(cls, left: ChordDiagram, right: ChordDiagram) -> "TreeSeed":
        return _fresh_seed(with_fresh_labels(left, start=1),
                           with_fresh_labels(right, start=1 + left.n))


def _fresh_seed(left: LabeledDiagram, right: LabeledDiagram) -> TreeSeed:
    """The seed of root label 0 over sides labeled 1, 2, ... from the left
    side's first chord on: distinct labels, so unchecked."""
    seed = object.__new__(TreeSeed)
    _set(seed, "root_label", 0)
    _set(seed, "left", left)
    _set(seed, "right", right)
    return seed


@dataclass
class ZTreeVertex:
    """A tree vertex: a nonempty stack of chord labels, plus (unless it is a
    leaf) a diagram with at most two components arranged over its children.
    The structure's chords, in first-endpoint order, correspond to the
    children whose stack starts with the matching label."""

    stack: list[int]
    structure: LabeledDiagram | None = None
    children: dict[int, "ZTreeVertex"] = field(default_factory=dict)

    def vertices(self) -> list["ZTreeVertex"]:
        """Every vertex of the subtree in preorder, children in dict order;
        an explicit stack, so the depth is not bound by the recursion limit."""
        out, todo = [], [self]
        while todo:
            v = todo.pop()
            out.append(v)
            if v.children:
                todo += reversed(v.children.values())
        return out

    def size(self) -> int:
        return sum(len(v.stack) for v in self.vertices())

    def validate(self) -> list[tuple["ZTreeVertex", list[tuple[int, int, bool]]]]:
        """Check the tree; return its vertices in preorder, each with the
        (low, j, nested) of its structure's components (`crossing_scan`)."""
        out = []
        for v in self.vertices():
            ends = []
            if not v.stack:
                raise ValueError("empty stack")
            if v.structure is None:
                if v.children:
                    raise ValueError("children without a structure")
            else:
                if v.structure.n != len(v.children):
                    raise ValueError("structure size differs from child count")
                ends = crossing_scan(v.structure.diagram.partners)
                if len(ends) > 2:
                    raise ValueError("structure has more than two components")
                if set(v.structure.labels) != set(v.children):
                    raise ValueError("structure labels do not match children")
            out.append((v, ends))
        return out


def _split(p: Sequence[int], end_of: dict[int, int], lo: int, hi: int
           ) -> tuple[list[int], list[int], list[tuple[int, int, int, int]]]:
    """The root component of the run lo..hi-1 of p, a union of components
    that end_of maps from their lowest openers to their ends: its openers,
    its partner array and, per opener a, the runs after a and after p[a]
    (start, end, start, end), each ending at the component's next endpoint
    or at hi; none when the component fills the run.  The walk from lo to
    the component's end skips every other component, nested in a gap."""
    ends = [lo]
    x, last = lo + 1, end_of[lo]
    while x <= last:
        nested_end = end_of.get(x)
        if nested_end is None:
            ends.append(x)
            x += 1
        else:
            x = nested_end + 1
    openers = [a for a in ends if p[a] > a]
    if len(ends) == hi - lo:
        return openers, [q - lo for q in p[lo:hi]], []
    at = dict(zip(ends, range(len(ends))))
    core = [at[p[e]] for e in ends]
    ends.append(hi)
    return openers, core, [(a + 1, ends[at[a] + 1], p[a] + 1, ends[at[p[a]] + 1])
                           for a in openers]


def _side(ld: LabeledDiagram) -> tuple[Sequence[int], list[Token], dict[int, int]]:
    """A side of a seed as theta reads it: its partner array, the label at
    each endpoint, and the end of each component by its lowest opener."""
    p = ld.diagram.partners
    return p, ld.tokens(), {low: j for low, j, _ in crossing_scan(p)}


def theta(seed: TreeSeed) -> ZTreeVertex:
    """Grow the stack tree by working through the chords with their pairs
    of dangling diagrams, each a run lo..hi-1 of endpoints of one side of
    the seed.

    Case split per chord: nothing hangs off it (leaf); only the right
    diagram is nonempty (its root component becomes the structure); both are
    nonempty (the two root components are concatenated); only the left is
    nonempty with a single-chord root component (the vertex absorbs that
    label into its stack, a whole nest of chords spanning the run at once);
    only the left with a larger root component (phi of it becomes the
    structure, which is how the four shapes stay distinguishable when
    inverting).

    A chord of a run crosses no chord outside it, so every run is a union of
    components of its side, and the root component of a run is the one with
    the run's first endpoint as its lowest opener: one scan of each side
    finds where each component ends.
    """
    root = ZTreeVertex([seed.root_label])
    left, right = _side(seed.left), _side(seed.right)
    todo = [(left, 0, len(left[0]), right, 0, len(right[0]), root)] if seed.size > 1 else []

    def attach(side, lo: int, hi: int, v: ZTreeVertex) -> tuple[list[int], list[Token]]:
        """Hang one child per chord of the root component of run lo..hi-1 off
        v, queue the runs after its two ends, and return the component's
        partner array and labels."""
        p, toks, end_of = side
        openers, core, runs = _split(p, end_of, lo, hi)
        labels = [toks[a] for a in openers]
        for label in labels:
            v.children[label] = ZTreeVertex([label])
        for label, (a, a_end, b, b_end) in zip(labels, runs):
            if a < a_end or b < b_end:
                todo.append((side, a, a_end, side, b, b_end, v.children[label]))
        return core, labels

    while todo:
        sl, a, b, sr, c, d, v = todo.pop()
        if a == b:
            core, labels = attach(sr, c, d, v)
            if sr is right and len(core) == len(right[0]):
                v.structure = seed.right
            else:
                v.structure = _labeled(_trusted(tuple(core)), tuple(labels))
        elif c < d:
            core, labels = attach(sl, a, b, v)
            core_r, labels_r = attach(sr, c, d, v)
            m = len(core)
            v.structure = _labeled(
                _trusted((*core, *[q + m for q in core_r])), (*labels, *labels_r))
        else:
            p, toks, end_of = sl
            if p[a] == b - 1:
                # a chord spanning the run crosses nothing: absorb the whole nest
                k = 1
                while 2 * k < b - a and p[a + k] == b - 1 - k:
                    k += 1
                v.stack += toks[a:a + k]
                if 2 * k < b - a:
                    todo.append((sl, a + k, b - k, sl, 0, 0, v))
            elif end_of[a] == p[a]:  # a root component of one chord
                v.stack.append(toks[a])
                todo.append((sl, a + 1, p[a], sl, p[a] + 1, b, v))
            else:
                core, labels = attach(sl, a, b, v)
                v.structure = _phi_image(core, labels)
    return root


def _phi_image(core: list[int], labels: list[Token]) -> LabeledDiagram:
    """phi of a connected labeled diagram on >= 2 chords: the root's opener
    moves to slot k, after the openers among the endpoints 1..k."""
    k = _root_share(core)[0]
    before = 1 + sum(q > i for i, q in enumerate(core[1:k + 1], 1))
    return _labeled(_moved(_trusted(tuple(core)), 0, k),
                    (*labels[1:before], labels[0], *labels[before:]))


def theta_inv(root: ZTreeVertex) -> TreeSeed:
    """Rebuild the seed by discriminating each vertex's structure shape."""
    label, dl, dr = _unbuild(root.validate())
    dl, dr = _flatten(dl), _flatten(dr)
    sigma = root.structure
    # a structure with nothing hanging off it is the right side: share it
    right = sigma if sigma is not None and dr == sigma.tokens() else from_tokens(dr)
    return TreeSeed(label, from_tokens(dl), right)


def _unbuild(vertices: Sequence[tuple[ZTreeVertex, list]]) -> tuple[int, list, list]:
    """The head label of the root and its two dangling sides, from the
    tree's vertices in preorder with their structures' component ends
    (`ZTreeVertex.validate`).  In reversed preorder every vertex comes
    after its subtree, and the sides of its children are the top entries of
    `done`, the first child's on top.  A structure with one component is
    connected, one whose first is not nested a concatenation split after
    it, and else an image of phi, undone as in phi_inv.  A side is a list
    of labels and nonempty sides of children (`_hang`), so no level copies
    the levels below it; `_flatten` writes each label once."""
    done: list[tuple] = []
    for v, ends in reversed(vertices):
        dl = dr = ()
        sigma = v.structure
        if sigma is not None:
            hanging = {}
            for label, child in v.children.items():
                if child.stack[0] != label:
                    raise ValueError("child stack head differs from its structure label")
                hanging[label] = done.pop()
            tokens = sigma.tokens()
            if not ends:
                raise ValueError(_NOT_TWO_NESTED)
            low, j, nested = ends[0]
            if len(ends) == 1:
                dr = _hang(tokens, hanging)
            elif not nested:  # a concatenation: split after its first block
                dl, dr = _hang(tokens[:j + 1], hanging), _hang(tokens[j + 1:], hanging)
            else:
                dl = _hang(_move(tokens, low, 0), hanging)
        stack = v.stack
        if len(stack) > 1:
            # the nest of stack[1:] around dl, with dr after its innermost chord
            dl, dr = [*stack[1:], *(dl and [dl]), stack[-1], *(dr and [dr]),
                      *stack[-2:0:-1]], ()
        done.append((dl, dr))
    return vertices[0][0].stack[0], *done.pop()


def _hang(core: Sequence[Token], hanging: dict) -> list:
    """Each core label followed by the side hanging after it, hanging[label]
    holding the sides after the label's two ends; empty sides are left out."""
    out: list = []
    seen: set[Token] = set()
    for lab in core:
        out.append(lab)
        side = hanging[lab][lab in seen]
        if side:
            out.append(side)
        seen.add(lab)
    return out


def _flatten(side: list) -> list[Token]:
    """The labels of a side built by `_unbuild`, in order, the nested sides
    walked with an explicit stack of iterators."""
    out: list[Token] = []
    todo = [iter(side)]
    while todo:
        for x in todo[-1]:
            if x.__class__ is list:
                todo.append(iter(x))
                break
            out.append(x)
        else:
            todo.pop()
    return out


# -- serialization ---------------------------------------------------------------


def serialize_ztree(root: ZTreeVertex) -> str:
    """Nested parenthesized form: (stack; structure literal or -; children),
    children listed in the structure's chord order.  The vertices are
    written in preorder; a vertex at depth d that does not follow its parent
    is a later child, so the open vertices at depth >= d are closed and a
    space is written first."""
    out: list[str] = []
    depth, todo = -1, [(root, 0)]
    while todo:
        v, d = todo.pop()
        if d <= depth:
            out.append(")" * (depth - d + 1) + " ")
        depth = d
        stack = ".".join(str(label) for label in v.stack)
        if v.structure is None:
            out.append(f"({stack};-;")
        else:
            out.append(f"({stack};{v.structure.diagram.to_literal()};")
            todo += [(v.children[label], d + 1) for label in reversed(v.structure.labels)]
    out.append(")" * (depth + 1))
    return "".join(out)


def parse_ztree(text: str) -> ZTreeVertex:
    """Inverse of serialize_ztree.  The vertices still open are kept on an
    explicit stack, each with its stack labels, structure literal and the
    children read so far; a vertex is built when its ')' is read."""
    pos = 0
    open_vertices: list[tuple[list[int], str, list[ZTreeVertex]]] = []

    def peek() -> str:
        if pos >= len(text):
            raise ValueError(f"ends early at position {pos}")
        return text[pos]

    def take_until(stop: str) -> str:
        nonlocal pos
        end = text.find(stop, pos)
        if end < 0:
            raise ValueError(f"expected {stop!r} after position {pos}")
        out = text[pos:end]
        pos = end + 1
        return out

    try:
        while True:
            if peek() != "(":
                raise ValueError(f"expected '(' at {pos}")
            pos += 1
            stack_part = take_until(";")
            try:
                stack = [int(t) for t in stack_part.split(".")]
            except ValueError:
                raise ValueError(
                    f"a stack is integer labels joined by '.', got {stack_part!r}"
                ) from None
            open_vertices.append((stack, take_until(";"), []))
            while True:
                while peek() == " ":
                    pos += 1
                if peek() != ")":
                    break  # the next child starts
                pos += 1
                stack, body, children = open_vertices.pop()
                v = ZTreeVertex(stack)
                if body != "-":
                    diagram = ChordDiagram.from_literal(body)
                    labels = tuple(c.stack[0] for c in children)
                    v.structure = LabeledDiagram(diagram, labels)
                    v.children = {c.stack[0]: c for c in children}
                elif children:
                    raise ValueError("children listed without a structure")
                if not open_vertices:
                    if pos != len(text):
                        raise ValueError("trailing characters after the tree")
                    return v
                open_vertices[-1][2].append(v)
    except ValueError as exc:
        raise ValueError(f"tree literal {text!r}: {exc}") from None


# -- enumeration of seeds (testing / counting) -------------------------------------


def all_seeds(total_size: int) -> Iterator[TreeSeed]:
    """Every TreeSeed with 1 + |left| + |right| = total_size, as
    `TreeSeed.from_diagrams` builds it; each size of diagram is listed and
    each side labeled once."""
    if total_size < 0:
        raise ValueError("n must be nonnegative")
    listed = [list(enumerate_diagrams(n)) for n in range(total_size)]
    for left_n in range(total_size):
        rights = [with_fresh_labels(right, start=1 + left_n)
                  for right in listed[total_size - 1 - left_n]]
        for left in listed[left_n]:
            left = with_fresh_labels(left, start=1)
            for right in rights:
                yield _fresh_seed(left, right)
