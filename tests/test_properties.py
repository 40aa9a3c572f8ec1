"""Property tests on random matchings at n = 9-12, beyond the sizes the
exhaustive tests reach (n <= 6), a size ladder of seeded uniform matchings
at n = 30-200, random series with mixed int and Fraction coefficients at
orders 0-24, the subset-square table of random kinematics, partial Bell
polynomials on mixed int and Fraction values, and CLI requests read with
and without the full parser."""

import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab.bijections import (
    LabeledDiagram,
    RootShareTriple,
    TreeSeed,
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
from chordlab import cli, fps, yukawa
from chordlab.bell import bell_partial
from chordlab.diffeo import KinematicSample
from chordlab.chord import (
    ChordDiagram,
    crossing_blocks,
    crossing_scan,
    first_block_end,
    reasons_and_cuts,
)
from chordlab.fps import FormalPowerSeries
from chordlab.yukawa import TadpoleGraph, diagram_to_tadpole, tadpole_to_diagram
from oracles import (
    bell_partial_fraction,
    intersection_adjacency,
    intersection_components,
    join_root_component,
    places_by_root_share,
    scan_by_adjacency,
    split_root_component,
    subdiagram,
    tadpole_by_nabla,
)
from test_bijections import (
    assert_inline_scans_match,
    oracle_nabla,
    oracle_phi,
    oracle_phi_inv,
    oracle_theta,
    oracle_theta_inv,
)
from test_chord import deletion_connectivity, scanned_reasons
from test_diffeo import subset_square
from test_yukawa import assert_split_matches_the_oracle

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
@given(st.one_of(matchings(), matchings(connected=True)))
def test_window_scan_matches_its_oracles(d):
    assert d.connectivity() == deletion_connectivity(d)
    assert reasons_and_cuts(d) == scanned_reasons(d)


def closed_windows(partners):
    """Every window [a, b] of endpoints that pairs internally."""
    m = len(partners)
    for a in range(m):
        out = 0  # endpoints in [a, b] paired outside it
        for b in range(a, m):
            out += -1 if a <= partners[b] < b else 1
            if not out:
                yield a, b


@PROPERTY
@given(st.one_of(matchings(st.integers(2, 40)), matchings(st.integers(2, 40), connected=True)))
def test_census_search_sees_every_disconnection_before_the_final_run(d):
    # The census search books a subtree as disconnected where its free
    # endpoints close a window without endpoint 0, every pending closer
    # after them, and past the last opener it looks for no cut-0 window
    # and no block end.  So a diagram is disconnected exactly when a closed
    # window (its complement, nonempty, is closed too) ends before the last
    # opener, or one without endpoint 0 is followed only by closers.
    p = d.partners
    last_opener = max(a for a, q in enumerate(p) if q > a)
    separated = any(b < last_opener or a and all(p[x] < x for x in range(b + 1, len(p)))
                  for a, b in closed_windows(p))
    assert separated != d.is_connected()
    end = first_block_end(p)
    assert end is None or end < last_opener


@PROPERTY
@given(matchings(st.integers(9, 14)))
def test_is_connected_matches_the_full_crossing_scan(d):
    assert d.is_connected() == (len(list(crossing_blocks(d.partners))) == 1)


@PROPERTY
@given(matchings())
def test_split_join_root_component_roundtrip(d):
    ld = with_fresh_labels(d)
    core, danglings = split_root_component(ld)
    assert core.diagram.is_connected()
    assert core.diagram == subdiagram(d, d.components()[0])
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
@given(matchings(st.integers(2, 40), connected=True))
def test_phi_and_nabla_match_the_token_list_oracles(d):
    c1, c2, k = oracle_nabla(with_fresh_labels(d))
    triple = nabla(d)
    assert triple == RootShareTriple(c1.diagram, c2.diagram, k)
    assert nabla_inv(triple) == d
    image = phi(d)
    assert image == oracle_phi(with_fresh_labels(d)).diagram
    assert phi_inv(image) == oracle_phi_inv(with_fresh_labels(image)).diagram


@PROPERTY
@given(st.one_of(matchings(st.integers(1, 40)), matchings(st.integers(2, 40), connected=True)),
       st.integers(0, 39))
def test_inline_scans_match_the_crossing_scan_forms(d, chord):
    assert_inline_scans_match(d.partners)
    if d.is_connected() and d.n > 1:
        # phi's image has the two nested components _inner_opener looks for
        assert_inline_scans_match(phi(d).partners)
    # with one chord skipped, its blocks listed as the oracle's components
    p, openers = d.partners, [a for a, _ in d.chords()]
    skip = openers[chord % d.n]
    ends = scan_by_adjacency(p, skip)
    assert crossing_scan(p, skip) == ends
    blocks = list(crossing_blocks(p, skip))
    assert [(b[0], max(p[a] for a in b)) for b in blocks] == [end[:2] for end in ends]
    allowed = [i for i, a in enumerate(openers) if a != skip]
    assert sorted(blocks) == [[openers[i] for i in sorted(comp)] for comp in
                              intersection_components(intersection_adjacency(d), allowed)]


@PROPERTY
@given(matchings(connected=True))
def test_lambda_roundtrip(d):
    t = diagram_to_tadpole(d)
    assert t.boson_count == d.n
    assert tadpole_to_diagram(t) == d


@settings(max_examples=15, deadline=None, database=None)
@given(matchings(st.integers(2, 200), connected=True))
def test_psi_inv_matches_the_copying_split_at_every_split(d):
    todo = [diagram_to_tadpole(d)]
    while todo:
        t = todo.pop()
        if not t.is_single_vertex():
            todo += assert_split_matches_the_oracle(t)


@settings(max_examples=15, deadline=None, database=None)
@given(matchings(st.integers(2, 200), connected=True))
def test_lambda_matches_the_oracles(d):
    t, expected = diagram_to_tadpole(d), tadpole_by_nabla(d)
    assert (t.succ, t.boson, t.leg) == (expected.succ, expected.boson, expected.leg)
    assert yukawa._places(t) == places_by_root_share(t)


@PROPERTY
@given(matchings())
def test_diagram_literal_roundtrip(d):
    assert ChordDiagram.from_literal(d.to_literal()) == d


@PROPERTY
@given(matchings(connected=True))
def test_tadpole_literal_roundtrip(d):
    t = diagram_to_tadpole(d)
    parsed = TadpoleGraph.from_literal(t.to_literal())
    assert parsed.canonical().to_literal() == t.canonical().to_literal()
    assert (parsed.succ, parsed.boson, parsed.leg) == (t.succ, t.boson, t.leg)


@PROPERTY
@given(matchings(), matchings())
def test_theta_roundtrip(left, right):
    seed = TreeSeed.from_diagrams(left, right)
    tree = theta(seed)
    assert tree.size() == seed.size
    assert theta_inv(tree) == seed
    assert theta_inv(parse_ztree(serialize_ztree(tree))) == seed


@PROPERTY
@given(st.one_of(matchings(st.integers(1, 40)), concatenations()),
       st.one_of(matchings(st.integers(1, 40)), concatenations()), SEEDS)
def test_theta_matches_the_token_list_oracles(left, right, shuffle):
    # sides of 1-40 chords, or concatenations: on a decomposable side the
    # last run of the first split holds the side's later blocks; the
    # labels are distinct but in random order
    total = 1 + left.n + right.n
    labels = random.Random(shuffle).sample(range(4 * total), total)
    seed = TreeSeed(labels[0], LabeledDiagram(left, tuple(labels[1:1 + left.n])),
                    LabeledDiagram(right, tuple(labels[1 + left.n:])))
    tree = theta(seed)
    assert serialize_ztree(tree) == serialize_ztree(oracle_theta(seed))
    assert theta_inv(tree) == oracle_theta_inv(tree) == seed


def assert_first_block_end_is_the_first_self_paired_proper_prefix(d):
    p = d.partners
    self_paired = [
        j for j in range(len(p) - 1) if all(p[i] <= j for i in range(j + 1))
    ]
    assert first_block_end(p) == (self_paired[0] if self_paired else None)
    assert d.is_indecomposable() == (not self_paired)


@PROPERTY
@given(concatenations())
def test_first_block_end_is_the_first_self_paired_proper_prefix(d):
    assert_first_block_end_is_the_first_self_paired_proper_prefix(d)


@PROPERTY
@given(matchings(), SEEDS)
def test_intersection_components_partition_without_crossings(d, seed):
    adj = intersection_adjacency(d)
    rng = random.Random(seed)
    allowed = {i for i in range(d.n) if rng.random() < 0.7}
    comps = intersection_components(adj, allowed)
    assert sorted(i for comp in comps for i in comp) == sorted(allowed)
    assert [min(comp) for comp in comps] == sorted(min(comp) for comp in comps)
    owner = {i: k for k, comp in enumerate(comps) for i in comp}
    for i in allowed:
        assert all(owner[j] == owner[i] for j in adj[i] if j in allowed)


# -- size ladder: one seeded uniform matching per map and size ------------------

LADDER = [30, 60, 120, 200]


def ladder_matching(n, connected=False, salt="", until=lambda d: True):
    rng = random.Random(f"ladder/{n}{salt}")
    while True:  # about 36% of uniform matchings are connected at these sizes
        d = random_matching(rng, n)
        if (not connected or d.is_connected()) and until(d):
            return d


def cut_openers(partners):
    """The openers of the chords whose deletion disconnects the diagram."""
    return {a for a, q in enumerate(partners)
            if a < q and len(list(crossing_blocks(partners, skip=a))) > 1}


def connectivity_one_rung(n):
    return ladder_matching(n, connected=True, salt="/connectivity1",
                           until=lambda d: d.connectivity() == 1)


@pytest.mark.parametrize("n", LADDER)
def test_ladder_connectivity_against_deletions(n):
    # Connectivity 1 is a single deletion that disconnects, connectivity 2
    # a pair of them; pairs cost O(n^3), so they are checked at n <= 60.
    two_connected = ladder_matching(n, connected=True, salt="/2connected",
                                    until=lambda d: d.connectivity() >= 2)
    for d in (ladder_matching(n), connectivity_one_rung(n), two_connected):
        k = d.connectivity()
        assert (k == 0) == (not d.is_connected())
        if k:
            assert (k == 1) == bool(cut_openers(d.partners))
        if k >= 2 and n <= 60:
            pairs = any(cut_openers(subdiagram(d, set(range(n)) - {c}).partners)
                        for c in range(n))
            assert (k == 2) == pairs


@pytest.mark.parametrize("n", LADDER)
def test_ladder_reasons(n):
    d = connectivity_one_rung(n)
    report = reasons_and_cuts(d)
    assert report == scanned_reasons(d)
    openers = [a for a, _ in d.chords()]
    assert {openers[r.cut_chord] for r in report.reasons} == cut_openers(d.partners)
    by_cut = {}
    for r in report.reasons:
        by_cut.setdefault(r.cut_chord, []).append(r.window)
    for windows in by_cut.values():  # windows of one cut nest or are disjoint
        for (a1, b1), (a2, b2) in combinations(windows, 2):
            assert b1 < a2 or b2 < a1 or a1 <= a2 <= b2 <= b1 or a2 <= a1 <= b1 <= b2


@pytest.mark.parametrize("n", LADDER)
def test_ladder_crossing_scan(n):
    d = ladder_matching(n)
    adj = intersection_adjacency(d)
    comps = intersection_components(adj, range(n))
    assert d.components() == comps
    assert d.is_connected() == (len(comps) == 1)
    openers = [a for a, _ in d.chords()]
    assert sorted(crossing_blocks(d.partners, skip=0)) == [
        [openers[i] for i in sorted(comp)]
        for comp in intersection_components(adj, range(1, n))
    ]


@pytest.mark.parametrize("n", LADDER)
def test_ladder_phi_roundtrip(n):
    d = ladder_matching(n, connected=True)
    image = phi(d)
    assert image.is_indecomposable() and len(image.components()) == 2
    assert phi_inv(image) == d


@pytest.mark.parametrize("n", LADDER)
def test_ladder_nabla_roundtrip(n):
    d = ladder_matching(n, connected=True)
    triple = nabla(d)
    assert triple.c1.n + triple.c2.n == n
    assert nabla_inv(triple) == d


@pytest.mark.parametrize("n", LADDER)
def test_ladder_lambda_roundtrip(n):
    d = ladder_matching(n, connected=True)
    t = diagram_to_tadpole(d)
    assert t.boson_count == n
    assert tadpole_to_diagram(t) == d


@pytest.mark.parametrize("n", LADDER)
def test_ladder_theta_roundtrip(n):
    left = ladder_matching(n // 3, salt="/left")
    seed = TreeSeed.from_diagrams(left, ladder_matching(n - 1 - left.n, salt="/right"))
    tree = theta(seed)
    assert tree.size() == n
    assert theta_inv(tree) == seed


@pytest.mark.parametrize("n", LADDER)
def test_ladder_first_block_end(n):
    left, right = ladder_matching(n // 3, salt="/left"), ladder_matching(n - n // 3)
    shift = len(left.partners)
    concatenation = ChordDiagram(left.partners + tuple(q + shift for q in right.partners))
    for d in (right, concatenation):
        assert_first_block_end_is_the_first_self_paired_proper_prefix(d)


# -- formal power series laws -------------------------------------------------

ORDERS = st.integers(0, 24)
COEFFS = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=9)
)
SERIES_PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def series(draw, orders=ORDERS, valuation=0):
    """A random series; with valuation v its x^v coefficient is nonzero."""
    order = max(draw(orders), valuation)
    coeffs = [0] * valuation + draw(
        st.lists(COEFFS, min_size=order + 1 - valuation, max_size=order + 1 - valuation)
    )
    if order >= valuation and not coeffs[valuation]:
        coeffs[valuation] = draw(st.sampled_from([-2, -1, 1, Fraction(1, 3)]))
    return FormalPowerSeries(coeffs)


def assert_exact(*results):
    """No result holds a float, a bool or an integral Fraction."""
    for f in results:
        for c in f.coeffs:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@SERIES_PROPERTY
@given(series(), series(), series())
def test_series_ring_axioms(a, b, c):
    n = min(a.order, b.order, c.order)
    results = [
        (a + b) + c, a + (b + c), a * b, b * a, (a * b) * c, a * (b * c),
        a * (b + c), a * b + a * c, a - a, a * fps.one(a.order),
    ]
    assert results[0] == results[1]
    assert results[2] == results[3]
    assert results[4] == results[5]
    assert results[6] == results[7]
    assert results[8] == fps.zero(a.order)
    assert results[9] == a
    assert all(r.order == n for r in results[4:8])
    assert_exact(*results)


@SERIES_PROPERTY
@given(series(orders=st.integers(0, 16)), series(valuation=1), series(valuation=2))
def test_compose_is_associative(f, g, h):
    inner, outer = g.compose(h), f.compose(g)
    lhs, rhs = f.compose(inner), outer.compose(h)
    assert lhs == rhs
    assert_exact(inner, outer, lhs, rhs)


@SERIES_PROPERTY
@given(series(valuation=1))
def test_reversion_is_an_involution(f):
    g = f.reversion()
    identity = f.compose(g)
    assert identity == fps.x(f.order)
    assert g.compose(f) == identity
    assert g.reversion() == f
    assert_exact(g, identity)


@SERIES_PROPERTY
@given(series(valuation=1))
def test_exp_inverts_log(f):
    one_plus_f = f + 1
    log = one_plus_f.log()
    assert log.exp() == one_plus_f
    assert_exact(one_plus_f, log, log.exp())


@SERIES_PROPERTY
@given(series(), series(valuation=0), st.integers(0, 2))
def test_divide_inverts_multiplication(a, b, shift):
    b = fps.multiply_by_power(b, shift)
    product = a * b
    if a.order < shift:  # no quotient coefficient is known
        with pytest.raises(ValueError, match="beyond the truncation order"):
            fps.divide(product, b)
        return
    quotient = fps.divide(product, b)
    assert quotient == a.truncate(quotient.order)
    assert quotient.order == min(a.order, b.order) - shift
    assert_exact(product, quotient)


CLI_INTS = st.integers(-3, 70).map(str)
CLI_TEXTS = st.sampled_from(["x", "", "b.txt", "1,1/2"])
CLI_WORDS = st.one_of(st.sampled_from(["-h", "--", "--order=3"]), CLI_INTS, CLI_TEXTS)


@st.composite
def kinematic_samples(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    dots = dict(zip(pairs, draw(st.lists(COEFFS, min_size=len(pairs), max_size=len(pairs)))))
    return KinematicSample(n, draw(COEFFS), dots)


@SERIES_PROPERTY
@given(kinematic_samples())
def test_subset_square_table_expands_on_shell(kin):
    for mask, square in enumerate(kin.squares):
        subset = [i for i in range(1, kin.n + 1) if mask >> (i - 1) & 1]
        assert square == subset_square(kin, subset)


@st.composite
def bell_arguments(draw):
    """n <= 10, k <= n and the values x_1..x_(n-k+1) that B(n, k) reads,
    with up to two more that it does not."""
    n = draw(st.integers(0, 10))
    k = draw(st.integers(0, n))
    count = n - k + 1 + draw(st.integers(0, 2))
    return n, k, draw(st.lists(COEFFS, min_size=count, max_size=count))


@PROPERTY
@given(bell_arguments(), COEFFS.filter(bool))
def test_bell_partial_is_homogeneous_of_degree_k(arguments, c):
    n, k, xs = arguments
    assert bell_partial(n, k, [c * x for x in xs]) == c**k * bell_partial(n, k, xs)


@PROPERTY
@given(bell_arguments())
def test_bell_partial_matches_the_fraction_recurrence(arguments):
    value = bell_partial(*arguments)
    assert value == bell_partial_fraction(*arguments)
    assert type(value) is Fraction


@st.composite
def cli_argvs(draw):
    """A request for one command: its required arguments and some optional
    ones, positionals mostly present and anywhere, values valid seven times
    in eight, and one time in three one more word from anywhere."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[command][2]
    flags = st.sampled_from([flag for flag, _ in arguments if flag.startswith("-")])
    words = []
    for flag, options in arguments:
        valid = (st.sampled_from(options["choices"]) if "choices" in options
                 else CLI_INTS if "type" in options else CLI_TEXTS)
        value = draw(valid if draw(st.integers(0, 7)) else st.one_of(CLI_WORDS, flags))
        if not flag.startswith("-"):
            if draw(st.integers(0, 7)):  # a positional is left out one time in eight
                words.insert(draw(st.integers(0, len(words))), value)
        elif options.get("required") or draw(st.booleans()):
            words += [flag] if options.get("action") else [flag, value]
    if not draw(st.integers(0, 2)):
        words.insert(draw(st.integers(0, len(words))), draw(st.one_of(CLI_WORDS, flags)))
    return [command, *words]


def parse_outcome(parse, argv):
    """The Namespace, or the exit code and the text of the parser's exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, database=None)
@given(cli_argvs())
def test_reader_matches_the_full_parser(argv):
    full = cli.build_parser().parse_args
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(full, argv)
