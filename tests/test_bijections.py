"""Roundtrip and counting tests for the three diagram bijections, and the
maps checked against token-list oracles: the maps as they were written
before they became endpoint rearrangements."""

from collections import deque

import pytest

from chordlab.bijections import (
    EMPTY,
    _inner_opener,
    _root_share,
    _side,
    _split,
    LabeledDiagram,
    RootShareTriple,
    TreeSeed,
    ZTreeVertex,
    all_seeds,
    from_tokens,
    nabla,
    nabla_inv,
    parse_ztree,
    phi,
    phi_inv,
    serialize_ztree,
    theta,
    theta_inv,
    with_fresh_labels,
)
from chordlab.chord import (
    ChordDiagram,
    crossing_scan,
    enumerate_diagrams,
    first_block_end,
)
from chordlab.cli import main
from chordlab.gfseries import connected_counts, stack_tree_series
from oracles import (
    inner_opener_by_scan,
    intersection_adjacency,
    intersection_components,
    join_root_component,
    root_share_by_scan,
    scan_by_adjacency,
    split_root_component,
    token_partners,
    token_split,
)
from test_chord import assert_validated

CROSSING = ChordDiagram.from_literal("2: 3 4 1 2")
NESTED = ChordDiagram.from_literal("2: 4 3 2 1")
SINGLE = ChordDiagram.from_literal("1: 2 1")


def connected_diagrams(n):
    return (d for d in enumerate_diagrams(n) if d.is_connected())


def test_phi_crossing_to_nested():
    assert phi(CROSSING) == NESTED
    assert phi_inv(NESTED) == CROSSING


def test_phi_preconditions():
    with pytest.raises(ValueError):
        phi(SINGLE)
    with pytest.raises(ValueError):
        phi(ChordDiagram.from_literal("2: 2 1 4 3"))
    with pytest.raises(ValueError):
        phi_inv(CROSSING)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_phi_roundtrip_exhaustive(n):
    for d in connected_diagrams(n):
        image = phi(d)
        assert image.n == d.n
        assert phi_inv(image) == d


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_image_is_exactly_two_component_indecomposables(n):
    images = {phi(d) for d in connected_diagrams(n)}
    target = {
        d
        for d in enumerate_diagrams(n)
        if d.is_indecomposable() and len(d.components()) == 2
    }
    assert images == target
    # sizes follow C(x) - x: 1, 4, 27, 248 at n = 2..5
    assert len(images) == connected_counts(n)[n]


@pytest.mark.parametrize("n", range(2, 7))
def test_map_outputs_pass_the_constructor_checks(n):
    for d in connected_diagrams(n):
        image, triple = phi(d), nabla(d)
        assert_validated([image, phi_inv(image), triple.c1, triple.c2, nabla_inv(triple)])


def test_nabla_two_chords():
    triple = nabla(CROSSING)
    assert triple == RootShareTriple(SINGLE, SINGLE, 1)
    assert nabla_inv(triple) == CROSSING


def test_nabla_rejects_bad_triples():
    with pytest.raises(ValueError, match="interval index 2 out of range 1..1"):
        nabla_inv(RootShareTriple(SINGLE, SINGLE, 2))  # last interval is forbidden
    for c1, c2 in [(NESTED, SINGLE), (SINGLE, NESTED), (ChordDiagram(()), SINGLE)]:
        with pytest.raises(ValueError, match="both parts must be connected and nonempty"):
            nabla_inv(RootShareTriple(c1, c2, 1))  # nested pair, empty part
    with pytest.raises(ValueError):
        nabla(NESTED)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nabla_roundtrip_exhaustive(n):
    for d in connected_diagrams(n):
        t = nabla(d)
        assert t.c1.n + t.c2.n == n
        assert nabla_inv(t) == d


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_nabla_inv_covers_connected(n):
    # sum over triples of sizes: C_n = sum_{a+b=n} C_a C_b (2b-1)
    counts = connected_counts(n)
    assert counts[n] == sum(
        counts[a] * counts[n - a] * (2 * (n - a) - 1) for a in range(1, n)
    )
    rebuilt = set()
    for a in range(1, n):
        b = n - a
        for c1 in connected_diagrams(a):
            for c2 in connected_diagrams(b):
                for k in range(1, 2 * b):
                    rebuilt.add(nabla_inv(RootShareTriple(c1, c2, k)))
    assert rebuilt == set(connected_diagrams(n))


def test_theta_single_chord_seed():
    seed = TreeSeed.from_diagrams(ChordDiagram(()), ChordDiagram(()))
    tree = theta(seed)
    assert tree.stack == [0]
    assert tree.structure is None
    assert not tree.children
    assert theta_inv(tree) == seed


def test_theta_stack_absorption():
    seed = TreeSeed.from_diagrams(SINGLE, ChordDiagram(()))
    tree = theta(seed)
    assert tree.stack == [0, 1]
    assert serialize_ztree(tree) == "(0.1;-;)"
    assert theta_inv(tree) == seed


def test_theta_right_child():
    seed = TreeSeed.from_diagrams(ChordDiagram(()), SINGLE)
    tree = theta(seed)
    assert tree.stack == [0]
    assert tree.structure is not None
    assert tree.structure.diagram == SINGLE
    assert serialize_ztree(tree) == "(0;1: 2 1;(1;-;))"
    assert theta_inv(tree) == seed


def test_theta_absorbs_a_nest_of_1200_chords_into_one_stack():
    n = 1200
    nested = ChordDiagram([2 * n - 1 - i for i in range(2 * n)])
    seed = TreeSeed.from_diagrams(nested, ChordDiagram(()))
    tree = theta(seed)
    assert tree.stack == list(range(n + 1))
    assert tree.structure is None and not tree.children
    assert theta_inv(tree) == seed


def crossing_pairs_nested_in_their_first_gap(n):
    """n // 2 crossing pairs, each with the ones before it in the gap
    between its two openers: every split of theta finds a root component
    of two chords with everything else nested in its first gap."""
    tokens = []
    for k in range(n // 2):
        tokens = [2 * k, *tokens, 2 * k + 1, 2 * k, 2 * k + 1]
    return from_tokens(tokens).diagram


@pytest.mark.parametrize("shape", ["chain", "nest", "gap"])
def test_theta_roundtrips_4800_chords_on_either_side(shape):
    n = 4800
    if shape == "gap":
        d = crossing_pairs_nested_in_their_first_gap(n)
    else:
        d = ChordDiagram([i ^ 1 if shape == "chain" else 2 * n - 1 - i for i in range(2 * n)])
    for seed in (TreeSeed.from_diagrams(d, ChordDiagram(())),
                 TreeSeed.from_diagrams(ChordDiagram(()), d)):
        tree = theta(seed)
        assert tree.size() == n + 1
        assert theta_inv(tree) == seed


def test_theta_hangs_a_chain_of_1200_disjoint_chords_level_by_level():
    n = 1200
    chain = ChordDiagram([i ^ 1 for i in range(2 * n)])
    seed = TreeSeed.from_diagrams(chain, ChordDiagram(()))
    tree = theta(seed)
    assert tree.stack == [0, 1] and tree.size() == n + 1
    assert theta_inv(tree) == seed


@pytest.mark.parametrize("total", [1, 2, 3, 4, 5])
def test_theta_roundtrip_exhaustive(total):
    for seed in all_seeds(total):
        tree = theta(seed)
        tree.validate()
        assert tree.size() == total
        assert theta_inv(tree) == seed


@pytest.mark.parametrize("total", range(1, 7))
def test_from_tokens_builds_what_the_validating_constructors_build(total):
    # from_tokens builds its partner arrays without the constructor's checks
    for seed in all_seeds(total):
        tree = theta(seed)
        back = theta_inv(tree)
        built = [back.left, back.right]
        stack = [tree]
        while stack:
            v = stack.pop()
            if v.structure is not None:
                built.append(v.structure)
            stack.extend(v.children.values())
        for ld in built:
            p = ld.diagram.partners
            assert type(p) is tuple and ld == LabeledDiagram(ChordDiagram(p), ld.labels)
            assert from_tokens(ld.tokens()) == ld


@pytest.mark.parametrize("total", [1, 2, 3, 4, 5])
def test_theta_shares_the_seed_and_tree_objects(total):
    # what keeps a roundtrip over all seeds from holding extra copies
    for seed in all_seeds(total):
        tree = theta(seed)
        if not seed.left.n and seed.right.diagram.is_connected():
            assert tree.structure is seed.right
        back = theta_inv(tree)
        for side in (back.left, back.right):
            assert side.n or side is EMPTY
        if not back.left.n and back.right.diagram.is_connected():
            assert back.right is tree.structure


@pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 6, 7])
def test_theta_image_count_matches_series(total):
    z = stack_tree_series(total)
    images = {serialize_ztree(theta(seed)) for seed in all_seeds(total)}
    assert len(images) == z[total]


def test_all_seeds_rejects_a_negative_size_as_enumeration_does():
    for listing in (all_seeds, enumerate_diagrams):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            next(listing(-1))


def test_theta_structures_have_at_most_two_components():
    for seed in all_seeds(5):
        tree = theta(seed)
        stack = [tree]
        while stack:
            v = stack.pop()
            if v.structure is not None:
                assert len(v.structure.diagram.components()) <= 2
            stack.extend(v.children.values())


def test_serialization_roundtrip():
    for seed in all_seeds(4):
        tree = theta(seed)
        text = serialize_ztree(tree)
        again = parse_ztree(text)
        assert serialize_ztree(again) == text
        assert theta_inv(again) == seed


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ztree("(1;-;) trailing")
    with pytest.raises(ValueError):
        parse_ztree("(1;-;(2;-;))")


def test_labeled_diagram_validation():
    from chordlab.bijections import LabeledDiagram, from_tokens

    with pytest.raises(ValueError):
        LabeledDiagram(CROSSING, (1,))
    with pytest.raises(ValueError):
        LabeledDiagram(CROSSING, (1, 1))
    with pytest.raises(ValueError):
        from_tokens([1, 2, 1])  # label 2 unpaired
    with pytest.raises(ValueError, match="labels must be distinct"):
        from_tokens([1, 1, 1, 1])  # a matching, but one label on two chords
    with pytest.raises(ValueError):
        TreeSeed(0, bijections_fresh(SINGLE, 0), bijections_fresh(SINGLE, 1))


def bijections_fresh(d, start):
    from chordlab.bijections import with_fresh_labels

    return with_fresh_labels(d, start=start)


def test_ztree_validate_rejects_malformed(capsys):
    from chordlab.bijections import ZTreeVertex, with_fresh_labels

    leafy = ZTreeVertex([0])
    leafy.children = {1: ZTreeVertex([1])}
    three = "(0;3: 2 1 4 3 6 5;(1;-;) (2;-;) (3;-;))"
    relabeled = ZTreeVertex([0], with_fresh_labels(SINGLE, start=5), {6: ZTreeVertex([6])})
    # each tree, its message, and the literal nearest to it with the one
    # line `bijection theta --inverse` prints for that literal
    cases = [
        (ZTreeVertex([]), "empty stack",
         "(;-;)", "tree literal '(;-;)': a stack is integer labels joined by '.', got ''"),
        (leafy, "children without a structure",
         "(0;-;(1;-;))", "tree literal '(0;-;(1;-;))': children listed without a structure"),
        (ZTreeVertex([0], with_fresh_labels(SINGLE, start=5), {}),
         "structure size differs from child count",
         "(0;1: 2 1;)", "tree literal '(0;1: 2 1;)': one label per chord is required"),
        (parse_ztree(three), "structure has more than two components",
         three, "structure has more than two components"),
        (relabeled, "structure labels do not match children", None, None),
    ]
    for tree, message, literal, line in cases:
        for reject in (tree.validate, lambda: theta_inv(tree)):
            with pytest.raises(ValueError) as exc:
                reject()
            assert str(exc.value) == message
        if literal is not None:
            assert main(["bijection", "theta", "--inverse", "--input", literal]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"chordlab: error: {line}\n"
    # validate passes a structure without chords; theta_inv finds no shape for it
    empty = parse_ztree("(0;0:;)")
    empty.validate()
    with pytest.raises(ValueError, match="^inverse needs an indecomposable diagram"):
        theta_inv(empty)


INLINE_SCANS = {"root": (_root_share, root_share_by_scan),
                "inner": (_inner_opener, inner_opener_by_scan),
                "components": (crossing_scan, scan_by_adjacency)}


def assert_inline_scans_match(p):
    """_root_share, _inner_opener and crossing_scan return, or raise with
    the message, what their forms read off the adjacency oracle do."""
    def outcome(find):
        try:
            return find(p)
        except ValueError as exc:
            return str(exc)

    for fast, slow in INLINE_SCANS.values():
        assert outcome(fast) == outcome(slow)


@pytest.mark.parametrize("n", range(8))
def test_inline_scans_match_the_crossing_scan_forms(n):
    for d in enumerate_diagrams(n):
        assert_inline_scans_match(d.partners)


@pytest.mark.parametrize(
    "literal,rejecting",
    [
        ("0:", "root inner"),
        ("1: 2 1", "root inner"),
        ("2: 2 1 4 3", "root inner"),
        ("3: 4 3 2 1 6 5", "root inner"),
        ("2: 3 4 1 2", "inner"),
        ("3: 6 3 2 5 4 1", "root inner"),
        ("3: 6 4 5 2 3 1", "root"),
    ],
    ids=["empty", "one-chord", "disconnected", "decomposable", "connected",
         "three-components", "two-nested"],
)
def test_inline_scans_raise_where_the_crossing_scan_forms_do(literal, rejecting):
    p = ChordDiagram.from_literal(literal).partners
    for name, (fast, slow) in INLINE_SCANS.items():
        if name not in rejecting.split():
            assert fast(p) == slow(p)
            continue
        with pytest.raises(ValueError) as expected:
            slow(p)
        with pytest.raises(ValueError) as raised:
            fast(p)
        assert str(raised.value) == str(expected.value)


def closed_runs(p):
    """Every run lo..hi-1 of endpoints that pairs internally: a union of
    components, as theta splits them."""
    for lo in range(len(p)):
        for hi in range(lo + 2, len(p) + 1, 2):
            if all(lo <= p[x] < hi for x in range(lo, hi)):
                yield lo, hi


@pytest.mark.parametrize("n", range(1, 7))
def test_range_split_matches_the_token_split(n):
    # theta's split of a run of the seed's partner array, held to the
    # token-list split that re-pairs and slices the run's labels
    for d in enumerate_diagrams(n):
        p, toks, end_of = _side(reversed_labels(d))
        for lo, hi in closed_runs(p):
            openers, core, runs = _split(p, end_of, lo, hi)
            core_tokens, hanging = token_split(toks[lo:hi])
            assert core == token_partners(core_tokens)
            assert [toks[a] for a in openers] == [label for label, _, _ in hanging]
            if runs:
                assert [(toks[a], toks[s:e], toks[t:u]) for a, (s, e, t, u)
                        in zip(openers, runs)] == hanging
            else:  # the root component fills the run: nothing hangs off it
                assert len(core) == hi - lo
                assert all(not left and not right for _, left, right in hanging)


# -- token-list oracles ----------------------------------------------------------
# Each step lists the label at every endpoint, slices and joins such lists, and
# pairs them again by sorting; components come from the O(n^2) adjacency.


def oracle_components(d):
    return intersection_components(intersection_adjacency(d), range(d.n))


def oracle_tokens(ld):
    toks = [0] * (2 * ld.n)
    for i, (a, b) in enumerate(ld.diagram.chords()):
        toks[a] = toks[b] = ld.labels[i]
    return toks


def oracle_from_tokens(tokens):
    first, pairs = {}, []
    for pos, lab in enumerate(tokens):
        if lab in first:
            pairs.append((first.pop(lab), pos, lab))
        else:
            first[lab] = pos
    assert not first
    pairs.sort()
    p = [0] * len(tokens)
    for a, b, _ in pairs:
        p[a], p[b] = b, a
    return LabeledDiagram(ChordDiagram(p), tuple(lab for _, _, lab in pairs))


def oracle_nabla(ld):
    d = ld.diagram
    assert d.n >= 2 and len(oracle_components(d)) == 1
    toks = oracle_tokens(ld)
    cs = d.chords()
    comp = intersection_components(intersection_adjacency(d), range(1, d.n))[0]
    c2_positions = sorted(pos for i in comp for pos in cs[i])
    k = sum(1 for pos in c2_positions if pos < d.partners[0])
    c1 = [toks[pos] for pos in range(2 * d.n) if pos not in c2_positions]
    return oracle_from_tokens(c1), oracle_from_tokens([toks[pos] for pos in c2_positions]), k


def oracle_phi(ld):
    c1, c2, k = oracle_nabla(ld)
    t2 = oracle_tokens(c2)
    return oracle_from_tokens(t2[:k] + oracle_tokens(c1) + t2[k:])


def oracle_phi_inv(ld):
    comps = oracle_components(ld.diagram)
    assert len(comps) == 2 and first_block_end(ld.diagram.partners) is None
    cs = ld.diagram.chords()
    inner = comps[0] if 0 not in comps[0] else comps[1]
    lo = min(pos for i in inner for pos in cs[i])
    toks = oracle_tokens(ld)
    return oracle_from_tokens([toks[lo]] + toks[:lo] + toks[lo + 1:])


def oracle_split(ld):
    d = ld.diagram
    toks = oracle_tokens(ld)
    cs = d.chords()
    rc = sorted(oracle_components(d)[0])
    boundary = sorted(pos for i in rc for pos in cs[i])

    def gap_after(pos):
        j = pos + 1
        while j < 2 * d.n and j not in boundary:
            j += 1
        return oracle_from_tokens(toks[pos + 1:j])

    core = oracle_from_tokens([toks[pos] for pos in boundary])
    return core, [(gap_after(cs[i][0]), gap_after(cs[i][1])) for i in rc]


def oracle_join(core, danglings):
    which = {}
    for i, (a, b) in enumerate(core.diagram.chords()):
        which[a], which[b] = (i, 0), (i, 1)
    toks = []
    for pos, lab in enumerate(oracle_tokens(core)):
        i, side = which[pos]
        toks += [lab] + oracle_tokens(danglings[i][side])
    return oracle_from_tokens(toks)


def oracle_theta(seed):
    root = ZTreeVertex([seed.root_label])
    queue = deque([(seed.left, seed.right, root)])

    def attach(vertex, core, danglings):
        for label, (dl, dr) in zip(core.labels, danglings):
            vertex.children[label] = ZTreeVertex([label])
            queue.append((dl, dr, vertex.children[label]))

    while queue:
        dl, dr, v = queue.popleft()
        if not dl.n and not dr.n:
            continue
        if not dl.n:
            core, danglings = oracle_split(dr)
            v.structure = core
            attach(v, core, danglings)
        elif dr.n:
            core_l, dang_l = oracle_split(dl)
            core_r, dang_r = oracle_split(dr)
            v.structure = oracle_from_tokens(oracle_tokens(core_l) + oracle_tokens(core_r))
            attach(v, core_l, dang_l)
            attach(v, core_r, dang_r)
        else:
            core, danglings = oracle_split(dl)
            if core.n == 1:
                v.stack.append(core.labels[0])
                queue.append((*danglings[0], v))
            else:
                v.structure = oracle_phi(core)
                attach(v, core, danglings)
    return root


def oracle_theta_inv(v):
    dl, dr = EMPTY, EMPTY
    if v.structure is not None:
        sigma = v.structure
        hanging = {lab: oracle_theta_inv(child) for lab, child in v.children.items()}

        def assemble(core):
            return oracle_join(
                core, [(hanging[lab].left, hanging[lab].right) for lab in core.labels]
            )

        j = first_block_end(sigma.diagram.partners)
        if len(oracle_components(sigma.diagram)) == 1:
            dr = assemble(sigma)
        elif j is not None:
            toks = oracle_tokens(sigma)
            dl = assemble(oracle_from_tokens(toks[:j + 1]))
            dr = assemble(oracle_from_tokens(toks[j + 1:]))
        else:
            dl = assemble(oracle_phi_inv(sigma))
    for label in reversed(v.stack[1:]):
        single = LabeledDiagram(ChordDiagram((1, 0)), (label,))
        dl, dr = oracle_join(single, [(dl, dr)]), EMPTY
    return TreeSeed(v.stack[0], dl, dr)


def reversed_labels(d):
    return LabeledDiagram(d, tuple(range(d.n - 1, -1, -1)))


@pytest.mark.parametrize("n", range(7))
def test_tokens_and_split_join_match_the_oracles(n):
    for d in enumerate_diagrams(n):
        ld = reversed_labels(d)
        assert ld.tokens() == oracle_tokens(ld)
        assert from_tokens(oracle_tokens(ld)) == ld
        if n:
            core, danglings = split_root_component(ld)
            assert (core, danglings) == oracle_split(ld)
            assert join_root_component(core, danglings) == oracle_join(core, danglings)


@pytest.mark.parametrize("n", range(2, 7))
def test_phi_and_nabla_match_the_oracles(n):
    for d in connected_diagrams(n):
        c1, c2, k = oracle_nabla(with_fresh_labels(d))
        assert nabla(d) == RootShareTriple(c1.diagram, c2.diagram, k)
        image = phi(d)
        assert image == oracle_phi(with_fresh_labels(d)).diagram
        assert phi_inv(image) == oracle_phi_inv(with_fresh_labels(image)).diagram


@pytest.mark.parametrize("total", range(1, 7))
def test_theta_matches_the_oracle(total):
    for seed in all_seeds(total):
        tree = theta(seed)
        assert serialize_ztree(tree) == serialize_ztree(oracle_theta(seed))
        assert theta_inv(tree) == oracle_theta_inv(tree)
