"""Named series against their known values and identity verifiers."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chordlab
from chordlab import checks, chord, fps, gfseries, yukawa
from chordlab.gfseries import (
    IDENTITIES,
    MAX_ORDER,
    connected_counts,
    connected_pair_series,
    connected_series,
    connectivity_one_series,
    double_factorial_series,
    named_series,
    nonempty_indecomposable_series,
    root_insertion_series,
    stack_tree_series,
    two_connected_sequence_series,
    two_connected_series,
    verify_all_identities,
    verify_identity,
)
from oracles import subdiagram


def prefix(series, values):
    return series.coeffs[: len(values)] == tuple(Fraction(v) for v in values)


def test_double_factorials():
    assert prefix(double_factorial_series(6), [1, 1, 3, 15, 105, 945, 10395])


def test_connected_series_known_values():
    c = connected_series(8)
    assert prefix(c, [0, 1, 1, 4, 27, 248, 2830, 38232, 593859])


def test_connectivity_split_known_values():
    assert prefix(two_connected_series(8), [0, 0, 1, 1, 7, 63, 729, 10113, 161935])
    assert prefix(
        connectivity_one_series(8), [0, 1, 0, 3, 20, 185, 2101, 28119, 431924]
    )


def test_split_sums_to_connected():
    order = 12
    total = connectivity_one_series(order) + two_connected_series(order)
    assert total == connected_series(order)


def test_nonempty_indecomposable_values():
    assert prefix(nonempty_indecomposable_series(5), [0, 1, 2, 10, 74, 706])


def test_pair_series_values():
    assert prefix(connected_pair_series(7), [1, 2, 3, 10, 63, 558, 6226, 82836])


def test_stack_tree_values():
    z = stack_tree_series(5)
    assert prefix(z, [0, 1, 2, 7, 36, 249])
    # independent route: square (1,1,3,15,105) and shift
    d = double_factorial_series(4)
    assert z == fps.multiply_by_power(d * d, 1)


def test_root_insertion_values():
    assert prefix(root_insertion_series(7), [0, 1, 0, 4, 28, 288, 3552, 50692])


def test_two_connected_sequence_values():
    assert prefix(two_connected_sequence_series(6), [1, 1, 2, 10, 82, 898, 12018])


def test_named_series_registry():
    assert named_series("C", 4) == connected_series(4)
    with pytest.raises(KeyError):
        named_series("nope", 4)


@pytest.mark.parametrize("name", sorted(gfseries.SERIES))
def test_named_series_reach_the_cap(name):
    assert named_series(name, gfseries.SERIES_CAP).order == gfseries.SERIES_CAP
    with pytest.raises(ValueError, match=f"order {gfseries.SERIES_CAP + 1} exceeds"):
        named_series(name, gfseries.SERIES_CAP + 1)


def test_series_construction_is_reproducible():
    a = two_connected_series(10)
    b = two_connected_series(10)
    assert a is b or a == b


# sha256 of repr(named_series(name, 256).coeffs): the values and their
# int/Fraction types, so how a series is built or cached cannot change them
GOLDEN_256 = {
    "A": "9f3a0b2869505a4d89db6ada55da62537e93685fe8c80f4e5ad8a94c8b686870",
    "B": "c73112e07b5090c944f13e6a6d768508aba394d24101388e1557d0225389743a",
    "C": "6422cbdabb6a0a862bc45c887846b735b4e5b2efcbbe6c3e43cbf757a7d77c70",
    "C1": "45b89edf286777baf973357a8a6ddbb6f48e79382f1cbca095ca2965a3f2d0d8",
    "C2": "ad7b15c0854ad6926646e671fb152de0a09ce6dc85b7a47de441baec83d2b852",
    "D": "019b1d0827abe03728daf6885e94f417889f893a91242b741472adb04c029ca1",
    "Dleq2": "72a6c587f0096f47bd0106b588b7e754da5c30444795cf392be16ed28f3d4b5f",
    "I": "3d53668daae62046e806d5f09090054d72d6481cf9bb1fa7e2e70727886451a1",
    "I0": "4d0812e2adf41d918a2b9d9d30e4e17bbdf4004c11a165bbf34ac09df0333fb8",
    "S": "f5622ec8a1aeb9f294ce440964143d0a7865f1b57326bc1c0d454149fe1f1101",
    "Z": "d22da7894a93a6fe2d2c513dd2ffae54650641795f2576174892c4a968182633",
}


def test_named_series_match_their_golden_digests():
    assert set(GOLDEN_256) == set(gfseries.SERIES)
    for name, digest in GOLDEN_256.items():
        coeffs = named_series(name, 256).coeffs
        assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == digest, name


MEMO_MISSES_AFTER_SERIES_C2 = """
import contextlib, io
from chordlab import cli, gfseries
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["series", "C2", "--order", "48", "--format", "json"])
print(sum(f.cache_info().misses for f in vars(gfseries).values() if hasattr(f, "cache_info")))
"""


def test_cold_processes_miss_the_memo_tables_equally():
    # perfbench's isolation probe: two cold jobs must miss the gfseries
    # memo tables (its attributes with cache_info) equally and nonzero often
    env = dict(os.environ, PYTHONPATH=str(Path(chordlab.__file__).parents[1]))
    misses = [
        subprocess.run([sys.executable, "-c", MEMO_MISSES_AFTER_SERIES_C2],
                       capture_output=True, text=True, env=env, check=True).stdout
        for _ in range(2)
    ]
    assert misses[0] == misses[1] and int(misses[0]) > 0


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identities_hold_at_order_10(name):
    report = verify_identity(name, 10)
    assert report.holds, report


def test_identities_hold_through_the_whole_order_range():
    # every side reaches the requested order, x^0 included
    for order in range(MAX_ORDER + 1):
        for report in verify_all_identities(order):
            assert report.holds and report.order == order, report


def test_identity_tables_hold_module_level_functions():
    # the traced benchmark finds each table entry by name on its module
    for module, table in ((gfseries, IDENTITIES), (yukawa, yukawa.GREEN_IDENTITIES)):
        for sides in table.values():
            assert getattr(module, sides.__name__) is sides


def test_identity_report_flags_failures():
    reports = verify_all_identities(12)
    assert all(r.holds for r in reports)
    # a perturbed comparison reports the first failing coefficient
    bad = gfseries._compare(
        "probe", 4, fps.from_coeffs([0, 1, 2], order=4), fps.from_coeffs([0, 1, 3], order=4)
    )
    assert not bad.holds
    assert bad.first_failure == 2


def test_connectivity_one_identity_matches_known_prefix():
    # the right-hand side of the decomposition reproduces C1 through x^7
    report = verify_identity("connectivity_one_decomposition", 7)
    assert report.holds
    assert prefix(
        connectivity_one_series(7), [0, 1, 0, 3, 20, 185, 2101, 28119]
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_series_agree_with_enumeration(n):
    name, ok, counts = checks.census_matches_series(n)
    assert ok, counts


def test_lagrange_reversion_consistency():
    # reversion(C^2/x) composed back is the identity to order
    order = 16
    c = connected_series(order + 1)
    u = fps.divide_by_power(c * c, 1)
    rev = u.reversion()
    assert u.compose(rev) == fps.x(order)
    assert rev.compose(u) == fps.x(order)


def insert_root(d, interval):
    """New diagram with an extra root chord: left end at the front, right
    end placed after `interval` endpoints of d (1-based)."""
    m = 2 * d.n
    new_of_old = {
        old: old + 1 + (old >= interval) for old in range(m)
    }
    p = [0] * (m + 2)
    p[0] = interval + 1
    p[interval + 1] = 0
    for a in range(m):
        p[new_of_old[a]] = new_of_old[d.partners[a]]
    return chord.ChordDiagram(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_root_insertion_series_counts_insertions(n):
    # independent oracle: insert a root into every interval of every
    # connectivity-1 diagram and count the insertions that 2-connect
    count = 0
    for d in census_diagrams(n):
        if d.connectivity() != 1:
            continue
        for interval in range(1, 2 * n + 1):
            if insert_root(d, interval).is_k_connected(2):
                count += 1
    assert count == root_insertion_series(n)[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sequence_series_counts_root_only_cut_diagrams(n):
    # x*S counts connected diagrams in which no chord other than the root
    # is a cut (2-connected ones have no cut at all and qualify vacuously)
    count = 0
    for d in census_diagrams(n):
        if not d.is_connected():
            continue
        non_root_cut = any(
            not subdiagram(d, [i for i in range(d.n) if i != c]).is_connected()
            for c in range(1, d.n)
        )
        if not non_root_cut:
            count += 1
    assert count == two_connected_sequence_series(n)[n - 1]


def census_diagrams(n):
    return chord.enumerate_diagrams(n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_at_most_two_components_series_counts(n):
    count = sum(
        1 for d in census_diagrams(n) if len(d.components()) <= 2
    )
    assert count == gfseries.at_most_two_components_series(n)[n]


def test_connected_counts_extend_far():
    counts = connected_counts(40)
    assert counts[8] == 593859
    assert counts[40] > 0
    # sanity: ratio to (2n-1)!! approaches 1/e from below at this scale
    dfact = 1
    for k in range(1, 41):
        dfact *= 2 * k - 1
    ratio = Fraction(counts[40], dfact)
    assert Fraction(30, 100) < ratio < Fraction(37, 100)


# -- the compositional and root-removal constructions, kept as oracles ---------


def _two_connected_by_reversion(order):
    """C2 = (u - C) o reversion(u) with u = C^2/x, read straight off
    C = u - C2(u); C is built one order further so that u reaches x^order."""
    c = fps.FormalPowerSeries(connected_counts(order + 1))
    u = fps.divide_by_power(c * c, 1)
    return (u - c.truncate(order)).compose(u.reversion())


def _connected_counts_by_root_removal(nmax):
    """C_n = sum_{i+j=n} (2i-1) C_i C_j over every ordered pair."""
    c = [0] * (nmax + 1)
    if nmax >= 1:
        c[1] = 1
    for n in range(2, nmax + 1):
        c[n] = sum((2 * i - 1) * c[i] * c[n - i] for i in range(1, n))
    return tuple(c)


def test_two_connected_recurrence_matches_reversion_oracle():
    assert two_connected_series(0).coeffs == (0,)
    for order in range(1, 25):
        assert two_connected_series(order) == _two_connected_by_reversion(order)
    oracle = _two_connected_by_reversion(128)
    for order in range(1, 129):
        assert two_connected_series(order) == oracle.truncate(order), order
    assert all(type(v) is int for v in two_connected_series(128).coeffs)


def test_connected_counts_match_root_removal_oracle():
    assert connected_counts(256) == _connected_counts_by_root_removal(256)
    assert connected_counts(0) == (0,) and connected_counts(1) == (0, 1)


def test_two_connected_solves_its_differential_equation():
    """2x s s' = s^2 + x s - x s^2 + 2x^2 s - x^3 for s = C2, at order 200."""
    order = 200
    s = two_connected_series(order)
    x = fps.x(order)
    lhs = 2 * fps.multiply_by_power(s.truncate(order - 1) * s.derivative(), 1)
    rhs = s * s + x * s - x * s * s + 2 * (x * x * s) - x * x * x
    assert lhs == rhs


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: verify_identity("nope", 4), KeyError,
         f"unknown identity 'nope'; known: {', '.join(sorted(IDENTITIES))}"),
        (lambda: named_series("nope", 4), KeyError,
         f"unknown series 'nope'; known: {', '.join(sorted(gfseries.SERIES))}"),
        (lambda: verify_identity("pair_power", -1), ValueError, "order must be nonnegative"),
    ],
    ids=["unknown-identity", "unknown-series", "negative-order"],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.value.args == (message,)
