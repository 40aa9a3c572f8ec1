"""Executable bijections between diagram classes.

* the root-share decomposition `nabla` of a connected diagram into two
  smaller connected diagrams plus an interval index, and its inverse;
* `phi`, turning a connected diagram on >= 2 chords into an indecomposable
  diagram with exactly two components (and back);
* `theta`, the queue algorithm turning a (root chord, left diagram, right
  diagram) triple into a rooted tree of label stacks whose vertices carry an
  at-most-two-component diagram over their children (and back).

Chord identity is tracked through every rearrangement with explicit labels;
a LabeledDiagram is a diagram plus one label per chord.  The plain
ChordDiagram entry points wrap the labeled machinery with fresh labels.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .chord import (
    ChordDiagram,
    enumerate_diagrams,
    first_block_end,
    intersection_components,
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
        toks = [0] * (2 * self.diagram.n)
        for i, (a, b) in enumerate(self.diagram.chords()):
            toks[a] = self.labels[i]
            toks[b] = self.labels[i]
        return toks


EMPTY = LabeledDiagram(ChordDiagram(()), ())


def from_tokens(tokens: Sequence[Token]) -> LabeledDiagram:
    first: dict[Token, int] = {}
    pairs: list[tuple[int, int, Token]] = []
    for pos, lab in enumerate(tokens):
        if lab in first:
            pairs.append((first.pop(lab), pos, lab))
        else:
            first[lab] = pos
    if first:
        raise ValueError(f"unpaired labels: {sorted(first)}")
    pairs.sort()
    p = [0] * len(tokens)
    for a, b, _ in pairs:
        p[a] = b
        p[b] = a
    return LabeledDiagram(ChordDiagram(p), tuple(lab for _, _, lab in pairs))


def with_fresh_labels(d: ChordDiagram, start: int = 0) -> LabeledDiagram:
    return LabeledDiagram(d, tuple(range(start, start + d.n)))


# -- root share decomposition -----------------------------------------------


@dataclass(frozen=True)
class RootShareTriple:
    """Outcome of removing the root from a connected diagram: the remainder
    `c1` (keeping the root), the first component `c2`, and the interval of
    c2 through which the root used to pass (1-based, never the last one)."""

    c1: ChordDiagram
    c2: ChordDiagram
    k: int

    def __post_init__(self):
        if not (self.c1.is_connected() and self.c2.is_connected()):
            raise ValueError("both parts must be connected and nonempty")
        if not 1 <= self.k <= 2 * self.c2.n - 1:
            raise ValueError(
                f"interval index {self.k} out of range 1..{2 * self.c2.n - 1}"
            )


def _nabla_labeled(ld: LabeledDiagram) -> tuple[LabeledDiagram, LabeledDiagram, int]:
    d = ld.diagram
    if not d.is_connected() or d.n < 2:
        raise ValueError("root share decomposition needs a connected diagram on >= 2 chords")
    toks = ld.tokens()
    root_right = d.partners[0]
    cs = d.chords()
    # first component after root removal: the one of chord 1, at position 1
    comp = intersection_components(d.intersection_adjacency(), range(1, d.n))[0]
    c2_positions = sorted(pos for i in comp for pos in cs[i])
    in_c2 = set(c2_positions)
    k = sum(1 for pos in c2_positions if pos < root_right)
    c2 = from_tokens([toks[pos] for pos in c2_positions])
    c1 = from_tokens([toks[pos] for pos in range(2 * d.n) if pos not in in_c2])
    return c1, c2, k


def _nabla_inv_labeled(
    c1: LabeledDiagram, c2: LabeledDiagram, k: int
) -> LabeledDiagram:
    t1 = c1.tokens()
    t2 = c2.tokens()
    if not 1 <= k <= len(t2) - 1:
        raise ValueError(f"interval index {k} out of range 1..{len(t2) - 1}")
    return from_tokens([t1[0]] + t2[:k] + t1[1:] + t2[k:])


def nabla(d: ChordDiagram) -> RootShareTriple:
    c1, c2, k = _nabla_labeled(with_fresh_labels(d))
    return RootShareTriple(c1.diagram, c2.diagram, k)


def nabla_inv(t: RootShareTriple) -> ChordDiagram:
    return _nabla_inv_labeled(
        with_fresh_labels(t.c1),
        with_fresh_labels(t.c2, start=t.c1.n),
        t.k,
    ).diagram


# -- phi ----------------------------------------------------------------------


def _phi_labeled(ld: LabeledDiagram) -> LabeledDiagram:
    c1, c2, k = _nabla_labeled(ld)
    t1 = c1.tokens()
    t2 = c2.tokens()
    return from_tokens(t2[:k] + t1 + t2[k:])


def _phi_inv_labeled(ld: LabeledDiagram) -> LabeledDiagram:
    d = ld.diagram
    comps = d.components()
    if len(comps) != 2 or not d.is_indecomposable():
        raise ValueError(
            "inverse needs an indecomposable diagram with exactly two components"
        )
    cs = d.chords()
    inner = comps[0] if 0 not in comps[0] else comps[1]
    inner_positions = sorted(pos for i in inner for pos in cs[i])
    lo, hi = inner_positions[0], inner_positions[-1]
    if inner_positions != list(range(lo, hi + 1)):
        raise AssertionError("inner component is not a contiguous block")
    toks = ld.tokens()
    return from_tokens([toks[lo]] + toks[:lo] + toks[lo + 1 :])


def phi(d: ChordDiagram) -> ChordDiagram:
    """Connected on >= 2 chords -> indecomposable with two components."""
    return _phi_labeled(with_fresh_labels(d)).diagram


def phi_inv(d: ChordDiagram) -> ChordDiagram:
    """Inverse of phi: pull the inner component's root to the front."""
    return _phi_inv_labeled(with_fresh_labels(d)).diagram


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
        return cls(
            0,
            with_fresh_labels(left, start=1),
            with_fresh_labels(right, start=1 + left.n),
        )


@dataclass
class ZTreeVertex:
    """A tree vertex: a nonempty stack of chord labels, plus (unless it is a
    leaf) a diagram with at most two components arranged over its children.
    The structure's chords, in first-endpoint order, correspond to the
    children whose stack starts with the matching label."""

    stack: list[int]
    structure: LabeledDiagram | None = None
    children: dict[int, "ZTreeVertex"] = field(default_factory=dict)

    def size(self) -> int:
        return len(self.stack) + sum(c.size() for c in self.children.values())

    def validate(self) -> None:
        if not self.stack:
            raise ValueError("empty stack")
        if self.structure is None:
            if self.children:
                raise ValueError("children without a structure")
        else:
            if self.structure.n != len(self.children):
                raise ValueError("structure size differs from child count")
            if len(self.structure.diagram.components()) > 2:
                raise ValueError("structure has more than two components")
            if set(self.structure.labels) != set(self.children):
                raise ValueError("structure labels do not match children")
        for child in self.children.values():
            child.validate()


def split_root_component(
    ld: LabeledDiagram,
) -> tuple[LabeledDiagram, list[tuple[LabeledDiagram, LabeledDiagram]]]:
    """The root component of a nonempty diagram together with, per core
    chord, the labeled diagrams hanging right of its two ends (after the
    left end, after the right end).  A plain diagram goes through
    with_fresh_labels."""
    d = ld.diagram
    toks = ld.tokens()
    rc = sorted(d.root_component())
    cs = d.chords()
    boundary = sorted(pos for i in rc for pos in cs[i])
    in_boundary = set(boundary)
    core = from_tokens([toks[pos] for pos in boundary])

    def gap_after(pos: int) -> LabeledDiagram:
        run = []
        j = pos + 1
        while j < 2 * d.n and j not in in_boundary:
            run.append(toks[j])
            j += 1
        return from_tokens(run)

    danglings = [(gap_after(cs[i][0]), gap_after(cs[i][1])) for i in rc]
    return core, danglings


def join_root_component(core: LabeledDiagram, danglings) -> LabeledDiagram:
    """Inverse of split_root_component: hang each pair of diagrams right of
    the two ends of the matching core chord."""
    toks: list[Token] = []
    cs = core.diagram.chords()
    core_toks = core.tokens()
    which: dict[int, tuple[int, int]] = {}
    for i, (a, b) in enumerate(cs):
        which[a] = (i, 0)
        which[b] = (i, 1)
    for pos in range(2 * core.n):
        toks.append(core_toks[pos])
        i, side = which[pos]
        toks.extend(danglings[i][side].tokens())
    return from_tokens(toks)


def _concat(a: LabeledDiagram, b: LabeledDiagram) -> LabeledDiagram:
    return from_tokens(a.tokens() + b.tokens())


def _split_concat(ld: LabeledDiagram) -> tuple[LabeledDiagram, LabeledDiagram]:
    j = first_block_end(ld.diagram.partners)
    if j is None:
        raise ValueError("diagram is not a concatenation")
    toks = ld.tokens()
    return from_tokens(toks[: j + 1]), from_tokens(toks[j + 1 :])


def theta(seed: TreeSeed) -> ZTreeVertex:
    """Grow the stack tree by working through a queue of chords with their
    dangling diagram pairs.

    Case split per popped chord: nothing hangs off it (leaf); only the right
    diagram is nonempty (its root component becomes the structure); both are
    nonempty (the two root components are concatenated); only the left is
    nonempty with a single-chord root component (the vertex absorbs that
    label into its stack); only the left with a larger root component (phi
    of it becomes the structure, which is how the four shapes stay
    distinguishable when inverting).
    """
    root = ZTreeVertex([seed.root_label])
    queue: deque[tuple[int, LabeledDiagram, LabeledDiagram, ZTreeVertex]] = deque(
        [(seed.root_label, seed.left, seed.right, root)]
    )

    def attach(vertex: ZTreeVertex, core: LabeledDiagram, danglings) -> None:
        for i, label in enumerate(core.labels):
            child = ZTreeVertex([label])
            vertex.children[label] = child
            queue.append((label, danglings[i][0], danglings[i][1], child))

    while queue:
        _, dl, dr, v = queue.popleft()
        if not dl.n and not dr.n:
            continue
        if not dl.n:
            core, danglings = split_root_component(dr)
            v.structure = core
            attach(v, core, danglings)
        elif dr.n:
            core_l, dang_l = split_root_component(dl)
            core_r, dang_r = split_root_component(dr)
            v.structure = _concat(core_l, core_r)
            attach(v, core_l, dang_l)
            attach(v, core_r, dang_r)
        else:
            core, danglings = split_root_component(dl)
            if core.n == 1:
                label = core.labels[0]
                v.stack.append(label)
                queue.append((label, danglings[0][0], danglings[0][1], v))
            else:
                v.structure = _phi_labeled(core)
                attach(v, core, danglings)
    return root


def theta_inv(root: ZTreeVertex) -> TreeSeed:
    """Rebuild the seed by discriminating each vertex's structure shape."""
    root.validate()
    label, dl, dr = _unbuild(root)
    return TreeSeed(label, dl, dr)


def _unbuild(v: ZTreeVertex) -> tuple[int, LabeledDiagram, LabeledDiagram]:
    if v.structure is None:
        dl, dr = EMPTY, EMPTY
    else:
        sigma = v.structure
        child_danglings = {}
        for label, child in v.children.items():
            head, cdl, cdr = _unbuild(child)
            if head != label:
                raise ValueError("child stack head differs from its structure label")
            child_danglings[label] = (cdl, cdr)

        def assemble(core: LabeledDiagram) -> LabeledDiagram:
            return join_root_component(
                core, [child_danglings[lab] for lab in core.labels]
            )

        comps = sigma.diagram.components()
        if len(comps) == 1:
            dl, dr = EMPTY, assemble(sigma)
        elif not sigma.diagram.is_indecomposable():
            left_core, right_core = _split_concat(sigma)
            dl, dr = assemble(left_core), assemble(right_core)
        else:
            dl, dr = assemble(_phi_inv_labeled(sigma)), EMPTY
    for i in range(len(v.stack) - 1, 0, -1):
        single = LabeledDiagram(ChordDiagram((1, 0)), (v.stack[i],))
        dl, dr = join_root_component(single, [(dl, dr)]), EMPTY
    return v.stack[0], dl, dr


# -- serialization ---------------------------------------------------------------


def serialize_ztree(v: ZTreeVertex) -> str:
    """Nested parenthesized form: (stack; structure literal or -; children),
    children listed in the structure's chord order."""
    stack = ".".join(str(label) for label in v.stack)
    if v.structure is None:
        return f"({stack};-;)"
    body = v.structure.diagram.to_literal()
    kids = " ".join(
        serialize_ztree(v.children[lab]) for lab in v.structure.labels
    )
    return f"({stack};{body};{kids})"


def parse_ztree(text: str) -> ZTreeVertex:
    pos = 0

    def peek() -> str:
        if pos >= len(text):
            raise ValueError(f"tree literal ends early at position {pos}")
        return text[pos]

    def parse_vertex() -> ZTreeVertex:
        nonlocal pos
        if peek() != "(":
            raise ValueError(f"expected '(' at {pos}")
        pos += 1
        stack_part = _take_until(";")
        stack = [int(t) for t in stack_part.split(".")]
        body = _take_until(";")
        children: list[ZTreeVertex] = []
        while peek() != ")":
            if peek() == " ":
                pos += 1
                continue
            children.append(parse_vertex())
        pos += 1
        v = ZTreeVertex(stack)
        if body != "-":
            diagram = ChordDiagram.from_literal(body)
            labels = tuple(c.stack[0] for c in children)
            v.structure = LabeledDiagram(diagram, labels)
            v.children = {c.stack[0]: c for c in children}
        elif children:
            raise ValueError("children listed without a structure")
        return v

    def _take_until(stop: str) -> str:
        nonlocal pos
        end = text.find(stop, pos)
        if end < 0:
            raise ValueError(f"expected {stop!r} after position {pos}")
        out = text[pos:end]
        pos = end + 1
        return out

    v = parse_vertex()
    if pos != len(text):
        raise ValueError("trailing characters after the tree")
    return v


# -- enumeration of seeds (testing / counting) -------------------------------------


def all_seeds(total_size: int) -> Iterator[TreeSeed]:
    """Every TreeSeed with 1 + |left| + |right| = total_size."""
    for left_n in range(total_size):
        right_n = total_size - 1 - left_n
        for left in enumerate_diagrams(left_n):
            for right in enumerate_diagrams(right_n):
                yield TreeSeed.from_diagrams(left, right)
