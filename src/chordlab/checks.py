"""The checks that `chordlab verify` and the acceptance tests share.

A check returns ``(name, ok, detail)`` and takes its size plus the data
drawn for it or the generator to draw from, so each caller keeps its own
draws.  The diffeo checks take the values b_1..b_nmax they compare against
in place of nmax, so one reversion serves them all, and the yukawa checks
take the tadpoles they count or map, so one listing serves both at 4 loops.
A suite returns its checks' results in order; `verify all` passes
one generator through SUITES in order.  Layer functions are called through
their modules, so tracing wrappers installed on the modules see the calls.
"""

from fractions import Fraction

from . import bell, chord, diffeo, fps, gfseries, yukawa

Check = tuple[str, bool, str]


def identity(name: str, order: int) -> Check:
    report = gfseries.verify_identity(name, order)
    return f"identity:{name}", report.holds, f"order {report.order}"


def census_matches_series(n: int) -> Check:
    """The one-pass census at size n against all five counting series."""
    counts = chord.census(n)
    ok = (
        counts.total == gfseries.double_factorial_series(n)[n]
        and counts.connected == gfseries.connected_series(n)[n]
        and counts.two_connected == gfseries.two_connected_series(n)[n]
        and counts.connectivity_one == gfseries.connectivity_one_series(n)[n]
        and counts.indecomposable_nonempty
        == gfseries.nonempty_indecomposable_series(n)[n]
    )
    return f"enumeration:n={n}", ok, str(counts)


def bell_oracle(nmax: int, xs) -> Check:
    """The recurrence against the sum over set partitions, n <= nmax."""
    ok = all(
        bell.bell_partial(n, k, xs) == bell.bell_partial_by_partitions(n, k, xs)
        for n in range(nmax + 1)
        for k in range(n + 1)
    )
    return "bell:recurrence_vs_partitions", ok, f"n<={nmax}"


def bell_identity(which: str, nmax: int, xs) -> Check:
    """One of bell.BELL_IDENTITIES at every admissible (n, k), n <= nmax:
    id1 needs n > k, and id2 also runs over its second block count k2."""
    ok = all(
        bell.verify_bell_identity(which, n, k, xs, k2=k2)
        for n in range(1, nmax + 1)
        for k in range(1, n + 1)
        if which != "id1" or n > k
        for k2 in (range(1, n - k + 1) if which == "id2" else [None])
    )
    return f"bell:{which}", ok, f"n<={nmax}"


def diffeo_mapping(rng, count: int):
    """F(t) = t + ..., with `count` random rational coefficients after 1,
    drawn again while all are 0: F(t) = t is its own inverse, which the
    negative control cannot tell from a wrong inverse."""
    while True:
        coefficients = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(count)]
        if any(coefficients) or not count:
            return diffeo.Diffeomorphism.from_values([1] + coefficients)


def diffeo_closed_form(mapping, values) -> Check:
    """The Bell closed form against values = (b_1, ..., b_nmax)."""
    ok = all(diffeo.b_closed_form(mapping, n) == b for n, b in enumerate(values, 1))
    return "diffeo:closed_form_vs_inverse", ok, f"n<={len(values)}"


def diffeo_recurrences(mapping, values) -> Check:
    return "diffeo:recurrences", diffeo.verify_recurrences(mapping, values), ""


def diffeo_ode(mapping, nmax: int) -> Check:
    return "diffeo:ode", diffeo.verify_ode(mapping, nmax), ""


def diffeo_amplitudes(mapping, values, rng, samples: int = 1) -> Check:
    """The momentum-level recursion against values = (b_1, ..., b_nmax) on
    `samples` random nondegenerate kinematic points per n <= min(5, nmax),
    drawn from rng in n order."""
    top = min(5, len(values))
    ok = all(
        diffeo.amplitude_recursion(
            mapping, n, diffeo.KinematicSample.random_nondegenerate(n, rng)
        )
        == values[n - 1]
        for n in range(1, top + 1)
        for _ in range(samples)
    )
    return "diffeo:amplitude_recursion", ok, f"n<={top}"


def diffeo_negative_control(mapping) -> Check:
    """A perturbed b_3 must break the recurrences, and F in place of its
    inverse must leave a nonzero first ODE residual."""
    perturbed = diffeo.b_inverse_list(mapping, 6)
    perturbed[2] += 1
    ok = (
        not diffeo.verify_recurrences(mapping, perturbed)
        and diffeo.ode_residuals(mapping, 6, use_inverse=False)[0] != fps.zero(6)
    )
    return "diffeo:negative_control", ok, ""


def tadpole_count(loops: int, tadpoles) -> Check:
    """The tadpoles listed with this many loops against the series C."""
    count = len(tadpoles)
    ok = count == gfseries.connected_series(loops)[loops]
    return f"yukawa:tadpole_count:loops={loops}", ok, str(count)


def lambda_image(loops: int, tadpoles) -> Check:
    """The tadpole bijection maps the tadpoles listed with this many loops
    onto the connected diagrams."""
    images = {yukawa.tadpole_to_diagram(t) for t in tadpoles}
    connected = set(chord.connectivity_class(loops, (1, 2)))
    return (
        f"yukawa:lambda_bijective:loops={loops}",
        images == connected,
        f"{len(images)} diagrams",
    )


def primitive_vertex_graphs(n: int) -> Check:
    count = sum(
        1 for g in yukawa.enumerate_vertex_graphs(n) if yukawa.qqed_primitive(g)
    )
    ok = count == gfseries.two_connected_series(n)[n]
    return f"yukawa:primitive_vertex_graphs:n={n}", ok, str(count)


def chord_suite(order: int, rng) -> list[Check]:
    top = min(order, 7)  # the n = 8 pass lives in the acceptance suite
    return [identity(name, order) for name in sorted(gfseries.IDENTITIES)] + [
        census_matches_series(n) for n in range(1, top + 1)
    ]


def bell_suite(order: int, rng) -> list[Check]:
    nmax = min(order, 8)
    xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(nmax)]
    while not xs[0]:
        xs[0] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return [bell_oracle(nmax, xs)] + [
        bell_identity(which, nmax, xs) for which in bell.BELL_IDENTITIES
    ]


def diffeo_suite(order: int, rng) -> list[Check]:
    nmax = min(order, 12)
    mapping = diffeo_mapping(rng, 4)
    values = diffeo.b_inverse_list(mapping, nmax)
    return [
        diffeo_closed_form(mapping, values),
        diffeo_recurrences(mapping, values),
        diffeo_ode(mapping, nmax),
        diffeo_amplitudes(mapping, values, rng),
        diffeo_negative_control(mapping),
    ]


def yukawa_suite(order: int, rng) -> list[Check]:
    green = [
        (f"yukawa:{report.name}", report.holds, f"order {report.order}")
        for report in yukawa.green_identities(min(order, yukawa.MAX_GREEN_ORDER))
    ]
    tadpoles = [yukawa.enumerate_tadpoles(loops) for loops in range(1, 5)]
    return (
        green
        + [tadpole_count(loops, listed) for loops, listed in enumerate(tadpoles, 1)]
        + [lambda_image(4, tadpoles[3]), primitive_vertex_graphs(4)]
    )


SUITES = {
    "chord": chord_suite,
    "bell": bell_suite,
    "diffeo": diffeo_suite,
    "yukawa": yukawa_suite,
}
