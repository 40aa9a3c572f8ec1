"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 4's tracking bound at n = 20 is asserted exactly as specified;
see the README note on its status.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

from chordlab import checks, fps
from chordlab.asymptotics import (
    TOLERANCES,
    alien_connected,
    alien_connected_alternative,
    alien_two_connected,
    asymptotic_fit,
    chain_rule_check,
    connectivity_probability,
    leading_probability_estimate,
    square_image_consistency,
    two_connected_exponent_argument,
)
from chordlab.bijections import (
    all_seeds,
    nabla,
    nabla_inv,
    phi,
    phi_inv,
    serialize_ztree,
    theta,
    theta_inv,
)
from chordlab.chord import enumerate_diagrams
from chordlab.diffeo import Diffeomorphism, b_inverse_list
from chordlab.gfseries import (
    connected_series,
    connectivity_one_series,
    root_insertion_series,
    two_connected_sequence_series,
    two_connected_series,
)
from chordlab.yukawa import (
    composed_two_connected_kernel,
    enumerate_tadpoles,
    proper_green_function_table,
    psi,
    psi_inv,
)


def fracs(values):
    return tuple(Fraction(v) for v in values)


def prefix_equals(series, values):
    assert series.coeffs[: len(values)] == fracs(values), (
        series.coeffs[: len(values)],
        values,
    )


def assert_checks(*results):
    for name, ok, detail in results:
        assert ok, (name, detail)


def test_criterion_1_table_reproduction():
    start = time.time()
    order = 8
    c = connected_series(order + 1)
    c1 = connectivity_one_series(order + 1)
    c2 = two_connected_series(order + 1)
    # first table: the connectivity split and its derived rows
    prefix_equals(c, [0, 1, 1, 4, 27, 248, 2830, 38232, 593859])
    prefix_equals(c1, [0, 1, 0, 3, 20, 185, 2101, 28119, 431924])
    prefix_equals(c2, [0, 0, 1, 1, 7, 63, 729, 10113, 161935])
    prefix_equals(c.x_derivative(), [0, 1, 2, 12, 108, 1240, 16980])
    prefix_equals(c1.x_derivative(), [0, 1, 0, 9, 80, 925, 12606])
    prefix_equals(c2.x_derivative(), [0, 0, 2, 3, 28, 315, 4374])
    marked = 2 * c.x_derivative() - c
    prefix_equals(marked, [0, 1, 3, 20, 189, 2232, 31130])
    nested_row = fps.multiply_by_power(
        fps.divide(marked * marked, fps.one(order + 1) - marked), 1
    )
    prefix_equals(nested_row, [0, 0, 0, 1, 7, 59, 598, 7102])
    prefix_equals(
        2 * fps.multiply_by_power(c2, 1), [0, 0, 0, 2, 2, 14, 126, 1458]
    )
    marked1 = 2 * c1.x_derivative() - c1
    prefix_equals(
        fps.multiply_by_power(marked1, 1), [0, 0, 1, 0, 15, 140, 1665, 23111]
    )
    prefix_equals(
        fps.multiply_by_power(root_insertion_series(order), 1),
        [0, 0, 1, 0, 4, 28, 288, 3552, 50692],
    )
    # second table: the composed 2-connected kernel rows
    u = fps.divide_by_power(c * c, 1)
    prefix_equals(u, [0, 1, 2, 9, 62, 566, 6372])
    kernel = composed_two_connected_kernel(6)
    prefix_equals(kernel, [1, 1, 9, 100, 1323, 20088, 342430])
    ck = (c.truncate(6) * c.truncate(6)) * kernel
    prefix_equals(ck, [0, 0, 1, 3, 20, 189, 2232])
    prefix_equals(
        fps.divide(c.truncate(7) - fps.x(7), fps.x(7)).truncate(6) * ck,
        [0, 0, 0, 1, 7, 59, 598],
    )
    # third table: the 2-connected expansion ingredients
    s = two_connected_sequence_series(7)
    prefix_equals(s, [1, 1, 2, 10, 82, 898, 12018])
    prefix_equals((s + fps.x(7)) ** 2, [1, 4, 8, 28, 208, 2164, 28056])
    prefix_equals(
        two_connected_exponent_argument(5), [2, 4, 14, 104, 1082, 14028]
    )
    prefix_equals(
        two_connected_series(9).truncate(7) * s, [0, 0, 1, 2, 10, 82, 898, 12018]
    )
    front = fps.divide(
        fps.from_coeffs([0, 0, 1], order=7),
        two_connected_series(7) * two_connected_sequence_series(7),
    )
    prefix_equals(front, [1, -2, -6, -50, -574])
    exp_row = (-(two_connected_exponent_argument(5) - 2 * fps.one(5))).exp()
    prefix_equals(
        exp_row,
        [1, -4, -6, Fraction(-176, 3), Fraction(-2008, 3), Fraction(-46636, 5)],
    )
    # fourth table: the proper Green function rows
    rows = proper_green_function_table(6)
    assert rows["vacuum"] == [0, 0, Fraction(1, 2), 1, Fraction(9, 2), 31, 283]
    assert rows["tadpole"] == [0, 1, 1, 4, 27, 248, 2830]
    assert rows["two_boson_legs"] == [-1, 1, 3, 20, 189, 2232, 31130]
    assert rows["two_fermion_legs"] == rows["two_boson_legs"]
    assert rows["vertex"] == [1, 1, 9, 100, 1323, 20088, 342430]
    elapsed = time.time() - start
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: all reference table rows bit-exact ({elapsed:.2f}s)")


def test_criterion_2_bruteforce_vs_series():
    start = time.time()
    assert_checks(*(checks.census_matches_series(n) for n in range(1, 9)))
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"enumeration took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 2: enumeration counts match all five series "
        f"for n <= 8 ({elapsed:.1f}s)"
    )


def test_criterion_3_alien_derivatives():
    image_c = alien_connected(10)
    assert image_c.exp_offset == Fraction(-1)
    assert image_c.inv_sqrt_2pi
    prefix_equals(
        image_c.body,
        [1, Fraction(-5, 2), Fraction(-43, 8), Fraction(-579, 16),
         Fraction(-44477, 128), Fraction(-5326191, 1280)],
    )
    image_c2 = alien_two_connected(10)
    assert image_c2.exp_offset == Fraction(-2)
    prefix_equals(
        image_c2.body,
        [1, -6, -4, Fraction(-218, 3), -890, Fraction(-196838, 15)],
    )
    # order-10 self-consistency: the two closed forms for the connected
    # image agree, and both images satisfy the chain/product relations
    assert image_c.body == alien_connected_alternative(10).body
    assert chain_rule_check(10)
    assert square_image_consistency(10)
    print("\nPASS criterion 3: expansion images exact and self-consistent to order 10")


def test_criterion_4_asymptotic_fit():
    start = time.time()
    lines = []
    failures = []
    bound = Decimal(str(TOLERANCES["tracking_ratio_at_n20"]))
    for series in ("C", "C2"):
        for terms in range(1, 6):
            deviations = {}
            for n in (20, 30, 40):
                report = asymptotic_fit(series, n, terms)
                deviations[n] = abs(report.tracking_ratio - 1)
            lines.append(
                f"  {series} R={terms}: "
                + "  ".join(f"n={n}: {float(dev):.3f}" for n, dev in deviations.items())
            )
            if not deviations[20] <= bound:
                failures.append((series, terms, float(deviations[20])))
            assert deviations[20] > deviations[30] > deviations[40], (
                series,
                terms,
                deviations,
            )
    prob_c = connectivity_probability("C", 40)
    assert abs(prob_c / leading_probability_estimate("C", 40) - 1) <= Decimal(
        str(TOLERANCES["connected_probability_rel"])
    )
    prob_c2 = connectivity_probability("C2", 40)
    assert abs(prob_c2 / leading_probability_estimate("C2", 40) - 1) <= Decimal(
        str(TOLERANCES["two_connected_probability_rel"])
    )
    elapsed = time.time() - start
    assert elapsed < 5.0, f"fits took {elapsed:.1f}s"
    print("\ntracking |ratio - 1| per series and term count:")
    for line in lines:
        print(line)
    assert not failures, (
        "tracking bound 0.5 at n=20 exceeded for: "
        + ", ".join(f"{s} R={r} ({v:.3f})" for s, r, v in failures)
    )
    print(f"\nPASS criterion 4: fits track the expansion ({elapsed:.1f}s)")


def test_criterion_5_bijection_roundtrips():
    start = time.time()
    for n in range(2, 7):
        for d in enumerate_diagrams(n):
            if not d.is_connected():
                continue
            assert phi_inv(phi(d)) == d
            assert nabla_inv(nabla(d)) == d
    for total in range(1, 7):
        seen = set()
        for seed in all_seeds(total):
            tree = theta(seed)
            assert theta_inv(tree) == seed
            seen.add(serialize_ztree(tree))
        assert len(seen) == sum(1 for _ in all_seeds(total))
    image_sizes = [1, 1, 4, 27]
    for loops, size in enumerate(image_sizes, 1):
        tadpoles = enumerate_tadpoles(loops)
        assert checks.lambda_image(loops, tadpoles)[1:] == (True, f"{size} diagrams"), loops
    from chordlab.yukawa import LEG_END

    for total in range(2, 5):
        for a in range(1, total):
            for t1 in enumerate_tadpoles(a):
                for t2 in enumerate_tadpoles(total - a):
                    assert psi_inv(psi(t1, (t2, LEG_END))) == (t1, (t2, LEG_END))
                    for d in sorted(t2.vertices):
                        combined = psi(t1, (t2, d))
                        back_t1, (back_t2, back_d) = psi_inv(combined)
                        assert (back_t1, back_t2, back_d) == (t1, t2, d)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"roundtrips took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 5: phi/nabla/theta roundtrips exhaustive to n=6, "
        f"tadpole bijection sizes {image_sizes}, psi roundtrips "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_quenched_vertex_graphs():
    expected = {1: 0, 2: 1, 3: 1, 4: 7, 5: 63, 6: 729}
    for n in range(1, 7):
        assert checks.primitive_vertex_graphs(n)[1:] == (True, str(expected[n])), n
    assert chain_rule_check(16)
    print(
        "\nPASS criterion 6: primitive vertex-graph counts equal the "
        "2-connected series for n <= 6; chain rule exact at order 16"
    )


def test_criterion_7_bell_suite():
    rng = random.Random(20200830)
    for trial in range(5):
        assert_checks(*checks.bell_suite(8, rng))
    print(
        "\nPASS criterion 7: recurrence matches the partition oracle and all "
        "five identities hold for n <= 8 over 5 random coefficient sets"
    )


def test_criterion_8_diffeomorphism_cancellation():
    start = time.time()
    rng = random.Random(987)
    for trial in range(20):
        mapping = checks.diffeo_mapping(rng, rng.randint(1, 6))
        values = b_inverse_list(mapping, 12)
        assert_checks(
            checks.diffeo_closed_form(mapping, values),
            checks.diffeo_recurrences(mapping, values),
            checks.diffeo_ode(mapping, 12),
            checks.diffeo_amplitudes(mapping, values, rng, samples=3),
        )
    assert_checks(checks.diffeo_negative_control(Diffeomorphism.from_values([1, 1])))
    elapsed = time.time() - start
    assert elapsed < 30.0, f"diffeo suite took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 8: 20 random substitutions agree along all four "
        f"routes with working negative controls ({elapsed:.1f}s)"
    )
