"""Workloads of the benchmark: seeded job lists, the job bodies that run in a
forked child, and the checks of their outputs.

A job is one request a user makes of chordlab, written as a tuple
``(kind, args)``:

* ``("cli", argv)`` -- ``chordlab.cli.main(argv + ["--format", "json"])``;
* ``("census", (n,))`` -- ``chordlab.census(n)``;
* ``("identities", (order,))`` -- ``gfseries.verify_all_identities(order)``;
* ``("roundtrip", (map, n))`` -- a bijection and its inverse over every
  object of size n.

A workload is a fixed seeded list of rounds.  Every round holds the same
kinds of job in the same number; the seed draws the sizes, the --seed of
the randomized verify suites and the order.  Sizes are drawn by stratified
sampling: the size range is cut into equal strata, one size is taken in
each, and neighbouring strata take mirrored positions (u and 1 - u), with u
stepping by the golden ratio from round to round.  Job costs grow like the
cube of the size, so a plain uniform draw would make the work of a run
depend on the seed far more than on the code.

Each round has 20 jobs (census: 8), mixed so that the latency quantiles
fall where the seed moves them least: in `series` the two `asym C2` jobs
above n = 72 are the top 10 %, so p90 falls on the boundary between two
strata, and the cheap `asym C` jobs are 12 of 20, so p50 is an `asym C`
latency; in `verify` p90 falls just below the two largest identity jobs and
p50 among the fixed-size bell and diffeo suites.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random

import chordlab
from chordlab import bijections, chord, cli, gfseries, yukawa

GOLDEN = 0.6180339887498949
ROUNDS = 100  # length of a run's job list; a run stops earlier on time
FILTER_SERIES = {
    "connected": "C",
    "2connected": "C2",
    "connectivity1": "C1",
    "indecomposable": "I0",
}
ROUNDTRIPS = [("phi", 5), ("phi", 6), ("nabla", 5), ("nabla", 6),
              ("theta", 5), ("theta", 6), ("lambda", 4)]


def spread(lo: int, hi: int, u: float, k: int) -> list[int]:
    """k sizes in [lo, hi], one per equal stratum, at position u in even
    strata and 1 - u in odd ones."""
    width = (hi - lo + 1) / k
    return [min(hi, lo + int((s + (u if s % 2 == 0 else 1 - u)) * width)) for s in range(k)]


def _series_round(rng, u):
    names = ["C2", "C1", "B", "S"]
    rng.shuffle(names)
    jobs = [("cli", ("series", name, "--order", str(n)))
            for name, n in zip(names, spread(32, 64, u[0], 4))]
    jobs += [("cli", ("asym", "C2", "--n", str(n), "--terms", "5"))
             for n in spread(48, 96, u[1], 4)]
    jobs += [("cli", ("asym", "C", "--n", str(n), "--terms", "5"))
             for n in spread(100, 200, u[2], 12)]
    return jobs


def _census_round(rng, u):
    jobs = [("census", (7,)), ("census", (7,)), ("census", (6,)), ("census", (6,))]
    jobs += [("cli", ("enumerate", "--n", "6", "--filter", f, "--count-only"))
             for f in FILTER_SERIES]
    return jobs


def _verify_round(rng, u):
    jobs = [("identities", (n,)) for n in spread(16, 48, u[0], 4)]
    jobs += [("cli", ("verify", "yukawa", "--order", str(n))) for n in spread(12, 32, u[1], 4)]
    jobs += [("cli", ("verify", suite, "--order", order))
             for suite, order in (("bell", "8"), ("bell", "8"), ("diffeo", "12"),
                                  ("diffeo", "12"), ("chord", "6"))]
    jobs = [(kind, args + ("--seed", str(rng.randrange(2**31)))) if kind == "cli" else (kind, args)
            for kind, args in jobs]
    jobs += [("roundtrip", pair) for pair in ROUNDTRIPS]
    return jobs


WORKLOADS = {"series": _series_round, "census": _census_round, "verify": _verify_round}


def job_list(workload: str, seed: int, rounds: int = ROUNDS) -> list[list[tuple]]:
    """The run's fixed seeded list of rounds."""
    build = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    phases = [rng.random() for _ in range(3)]
    out = []
    for r in range(rounds):
        jobs = build(rng, [(p + r * GOLDEN) % 1 for p in phases])
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def label(job) -> str:
    kind, args = job
    return " ".join([kind, *map(str, args)])


# -- job bodies (run in the forked child) ----------------------------------------


def execute(job):
    """Run one job and return its output as plain JSON data."""
    kind, args = job
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main([*args, "--format", "json"])
        return {"rc": rc, "stdout": out.getvalue()}
    if kind == "census":
        return dataclasses.asdict(chordlab.census(args[0]))
    if kind == "identities":
        return [[r.name, r.holds] for r in gfseries.verify_all_identities(args[0])]
    if kind == "roundtrip":
        return _roundtrip(*args)
    raise ValueError(f"unknown job kind {kind}")


def _seed_text(seed) -> str:
    return f"{seed.left.diagram.to_literal()} | {seed.right.diagram.to_literal()}"


def _roundtrip(name: str, n: int) -> dict:
    if name in ("phi", "nabla"):
        inputs = [d for d in chord.enumerate_diagrams(n) if d.is_connected()]
        forward, inverse = getattr(bijections, name), getattr(bijections, name + "_inv")
        images = [forward(d) for d in inputs]
        back = [inverse(i) for i in images]
        show_in = show_back = chord.ChordDiagram.to_literal
        show_image = (chord.ChordDiagram.to_literal if name == "phi"
                      else lambda t: f"{t.c1.to_literal()} | {t.c2.to_literal()} | {t.k}")
    elif name == "theta":
        inputs = list(bijections.all_seeds(n))
        images = [bijections.theta(s) for s in inputs]
        back = [bijections.theta_inv(t) for t in images]
        show_in = show_back = _seed_text
        show_image = bijections.serialize_ztree
    elif name == "lambda":
        inputs = yukawa.enumerate_tadpoles(n)
        images = [yukawa.tadpole_to_diagram(t) for t in inputs]
        back = [yukawa.diagram_to_tadpole(d) for d in images]
        # Tadpoles are equal up to relabelling, so compare canonical forms.
        show_in = show_back = lambda t: t.canonical().to_literal()
        show_image = chord.ChordDiagram.to_literal
    else:
        raise ValueError(f"unknown bijection {name}")
    return {
        "inputs": [show_in(x) for x in inputs],
        "images": [show_image(x) for x in images],
        "back": [show_back(x) for x in back],
    }


def series_references(order: int = 7) -> dict:
    """Coefficients the census, enumeration and roundtrip checks compare
    against, from the series side only (run in its own child)."""
    return {
        name: [int(c) for c in gfseries.named_series(name, order).coeffs]
        for name in ("D", "C", "C1", "C2", "I0", "Z")
    }


# -- checks (run in the parent, on plain data) -------------------------------------


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def reference_key(job) -> str:
    """Key of a job in references.json: the label without any --seed."""
    kind, args = job
    if "--seed" in args:
        i = args.index("--seed")
        args = args[:i] + args[i + 2:]
    if kind == "cli" and args[0] == "verify":
        return f"verify {args[1]}"
    return label((kind, args))


def check(job, out, refs: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    kind, args = job
    counts = refs["series"]
    if kind == "cli":
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        payload = json.loads(out["stdout"])["payload"]
        command = args[0]
        if command in ("series", "asym"):
            want = refs["digests"].get(reference_key(job))
            return None if digest(payload) == want else "output digest differs"
        if command == "enumerate":
            n = int(args[args.index("--n") + 1])
            want = counts[FILTER_SERIES[args[args.index("--filter") + 1]]][n]
            return None if payload["count"] == want else f"count {payload['count']} != {want}"
        if command == "verify":
            names = [c["name"] for c in payload["checks"]]
            if names != refs["checks"][reference_key(job)]:
                return "unexpected check names"
            failing = [c["name"] for c in payload["checks"] if not c["ok"]]
            if failing or not payload["all_ok"]:
                return "failing checks: " + ", ".join(failing)
            return None
    if kind == "census":
        n = args[0]
        want = {
            "total": counts["D"][n],
            "connected": counts["C"][n],
            "two_connected": counts["C2"][n],
            "connectivity_one": counts["C1"][n],
            "indecomposable_nonempty": counts["I0"][n],
        }
        return None if out == want else f"census {out} != {want}"
    if kind == "identities":
        names = [name for name, _ in out]
        if names != refs["checks"]["identities"]:
            return "unexpected identity names"
        failing = [name for name, holds in out if not holds]
        return "failing identities: " + ", ".join(failing) if failing else None
    if kind == "roundtrip":
        name, n = args
        want = counts["Z" if name == "theta" else "C"][n]
        if out["back"] != out["inputs"]:
            return "inverse of forward is not the identity"
        if len(out["inputs"]) != want or len(set(out["images"])) != want:
            return f"{len(out['inputs'])} inputs, {len(set(out['images']))} images, want {want}"
        return None
    return f"no check for {label(job)}"
