"""Property tests on random matchings at n = 9-12, beyond the sizes the
exhaustive tests reach (n <= 6)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab.bijections import (
    TreeSeed,
    join_root_component,
    nabla,
    nabla_inv,
    parse_ztree,
    phi,
    phi_inv,
    serialize_ztree,
    split_root_component,
    theta,
    theta_inv,
    with_fresh_labels,
)
from chordlab.chord import ChordDiagram, first_block_end, intersection_components

SIZES = st.integers(9, 12)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=100, deadline=None, database=None)


def random_matching(rng, n: int) -> ChordDiagram:
    ends = list(range(2 * n))
    rng.shuffle(ends)
    partners = [0] * (2 * n)
    for a, b in zip(ends[::2], ends[1::2]):
        partners[a] = b
        partners[b] = a
    return ChordDiagram(partners)


@st.composite
def matchings(draw, sizes=SIZES, connected=False):
    n = draw(sizes)
    rng = random.Random(draw(SEEDS))
    while True:  # about a third of all matchings are connected
        d = random_matching(rng, n)
        if not connected or d.is_connected():
            return d


@st.composite
def concatenations(draw):
    """A random matching, or a concatenation of two smaller ones."""
    if draw(st.booleans()):
        return draw(matchings())
    left = draw(matchings(st.integers(1, 6)))
    right = draw(matchings(st.integers(1, 6)))
    shift = len(left.partners)
    return ChordDiagram(left.partners + tuple(q + shift for q in right.partners))


@PROPERTY
@given(matchings())
def test_split_join_root_component_roundtrip(d):
    ld = with_fresh_labels(d)
    core, danglings = split_root_component(ld)
    assert core.diagram.is_connected()
    assert core.diagram == d.subdiagram(d.root_component())
    assert join_root_component(core, danglings) == ld


@PROPERTY
@given(matchings(connected=True))
def test_phi_roundtrip(d):
    image = phi(d)
    assert image.is_indecomposable() and len(image.components()) == 2
    assert phi_inv(image) == d


@PROPERTY
@given(matchings(connected=True))
def test_nabla_roundtrip(d):
    triple = nabla(d)
    assert triple.c1.n + triple.c2.n == d.n
    assert nabla_inv(triple) == d


@PROPERTY
@given(matchings(), matchings())
def test_theta_roundtrip(left, right):
    seed = TreeSeed.from_diagrams(left, right)
    tree = theta(seed)
    assert tree.size() == seed.size
    assert theta_inv(tree) == seed
    assert theta_inv(parse_ztree(serialize_ztree(tree))) == seed


@PROPERTY
@given(concatenations())
def test_first_block_end_is_the_first_self_paired_proper_prefix(d):
    p = d.partners
    self_paired = [
        j for j in range(len(p) - 1) if all(p[i] <= j for i in range(j + 1))
    ]
    assert first_block_end(p) == (self_paired[0] if self_paired else None)
    assert d.is_indecomposable() == (not self_paired)


@PROPERTY
@given(matchings(), SEEDS)
def test_intersection_components_partition_without_crossings(d, seed):
    adj = d.intersection_adjacency()
    rng = random.Random(seed)
    allowed = {i for i in range(d.n) if rng.random() < 0.7}
    comps = intersection_components(adj, allowed)
    assert sorted(i for comp in comps for i in comp) == sorted(allowed)
    assert [min(comp) for comp in comps] == sorted(min(comp) for comp in comps)
    owner = {i: k for k, comp in enumerate(comps) for i in comp}
    for i in allowed:
        assert all(owner[j] == owner[i] for j in adj[i] if j in allowed)
