"""Command-line frontend.

Subcommands: series, enumerate, bijection, bell, asym, diffeo, verify,
oeis-compare.  Output formats: table (default), json, csv, and bfile for
integer series.  `verify` runs the check registry in chordlab.checks, which
the acceptance tests share, with all randomness drawn from one seeded
generator (--seed, default printed with the output); enumeration sizes are
guarded by CHORDLAB_MAX_N.  Invalid input (a ValueError or
ZeroDivisionError from a handler, or an OSError for a file it cannot read)
prints "chordlab: error: ..." on stderr and exits with status 2, as
argparse does for malformed arguments.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import asymptotics, bell, bijections, checks, chord, diffeo, gfseries, oeis, yukawa

DEFAULT_SEED = 20201103


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    payload: object
    fmt: str = "table"
    lines: list[str] = field(default_factory=list)  # table rendering

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "payload": self.payload,
                "format": self.fmt,
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        if self.fmt == "json":
            return self.to_json()
        if self.fmt == "csv":
            rows = self.payload if isinstance(self.payload, list) else [self.payload]
            out = []
            for row in rows:
                if isinstance(row, dict):
                    out.append(",".join(str(v) for v in row.values()))
                elif isinstance(row, (list, tuple)):
                    out.append(",".join(str(v) for v in row))
                else:
                    out.append(str(row))
            return "\n".join(out)
        return "\n".join(self.lines)


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _parse_rationals(text: str, option: str) -> list[Fraction]:
    values = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"{option} entries must be rationals such as 1/2, got {part!r}"
            ) from None
    return values


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


# -- subcommand handlers --------------------------------------------------------


def cmd_series(args) -> OutputRecord:
    if args.order > gfseries.MAX_ORDER:
        raise ValueError(f"order is capped at {gfseries.MAX_ORDER}")
    series = gfseries.named_series(args.name, args.order)
    coeffs = [_fraction_text(series[i]) for i in range(args.order + 1)]
    record = OutputRecord(
        "series",
        {"name": args.name, "order": args.order},
        coeffs,
        args.format,
    )
    if args.format == "bfile":
        val = series.valuation()
        if val > args.order:
            raise ValueError(
                f"{args.name} has no nonzero coefficient through x^{args.order};"
                " raise --order for a b-file"
            )
        lines = [f"# {args.name} coefficients, x^{val}..x^{args.order}"]
        for i in range(val, args.order + 1):
            value = series[i]
            if value.denominator != 1:
                raise ValueError("bfile output needs integer coefficients")
            lines.append(f"{i} {value.numerator}")
        record.lines = lines
        record.fmt = "table"  # already rendered
    else:
        record.lines = [",".join(coeffs)]
    return record


# Each filter: the predicate a listing applies, and the Census field that
# counts the diagrams it keeps.
FILTERS = {
    "all": (lambda d: True, "total"),
    "connected": (lambda d: d.is_connected(), "connected"),
    "2connected": (lambda d: d.is_k_connected(2), "two_connected"),
    "connectivity1": (lambda d: d.connectivity() == 1, "connectivity_one"),
    "indecomposable": (lambda d: d.n > 0 and d.is_indecomposable(),
                       "indecomposable_nonempty"),
}


def cmd_enumerate(args) -> OutputRecord:
    """List the diagrams (or tadpoles) of size n.  A count-only request for
    diagrams is read from the one-pass census; the listing through FILTERS
    stays its oracle."""
    items = []
    keep, field = FILTERS[args.filter]
    if args.kind == "tadpoles":
        if args.filter != "all":
            raise ValueError("filters apply to diagrams only")
        items = [t.to_literal() for t in yukawa.enumerate_tadpoles(args.n)]
        count = len(items)
    elif args.count_only:
        count = getattr(chord.census(args.n), field)
    else:
        items = [
            d.to_literal() for d in chord.enumerate_diagrams(args.n) if keep(d)
        ]
        count = len(items)
    payload = {"count": count}
    if not args.count_only:
        payload["items"] = items
    record = OutputRecord(
        "enumerate",
        {"kind": args.kind, "n": args.n, "filter": args.filter},
        payload,
        args.format,
    )
    record.lines = [f"count {count}"] + ([] if args.count_only else items)
    return record


def _fields(text: str, form: str) -> list[str]:
    fields = [part.strip() for part in text.split("|")]
    if len(fields) != form.count("|") + 1:
        raise ValueError(f"--input must have the form '{form}', got {text!r}")
    return fields


def cmd_bijection(args) -> OutputRecord:
    name = args.map
    if name == "phi":
        d = chord.ChordDiagram.from_literal(args.input)
        out = bijections.phi_inv(d) if args.inverse else bijections.phi(d)
        result = out.to_literal()
    elif name == "nabla":
        if args.inverse:
            c1_text, c2_text, k_text = _fields(args.input, "c1 | c2 | k")
            triple = bijections.RootShareTriple(
                chord.ChordDiagram.from_literal(c1_text),
                chord.ChordDiagram.from_literal(c2_text),
                _parse_int(k_text, "the k of --input 'c1 | c2 | k'"),
            )
            result = bijections.nabla_inv(triple).to_literal()
        else:
            t = bijections.nabla(chord.ChordDiagram.from_literal(args.input))
            result = f"{t.c1.to_literal()} | {t.c2.to_literal()} | {t.k}"
    elif name == "theta":
        if args.inverse:
            seed = bijections.theta_inv(bijections.parse_ztree(args.input))
            result = (
                f"{seed.left.diagram.to_literal()} | {seed.right.diagram.to_literal()}"
            )
        else:
            left_text, right_text = _fields(args.input, "left | right")
            seed = bijections.TreeSeed.from_diagrams(
                chord.ChordDiagram.from_literal(left_text)
                if left_text != "-"
                else chord.ChordDiagram(()),
                chord.ChordDiagram.from_literal(right_text)
                if right_text != "-"
                else chord.ChordDiagram(()),
            )
            result = bijections.serialize_ztree(bijections.theta(seed))
    elif name == "lambda":
        if args.inverse:
            d = chord.ChordDiagram.from_literal(args.input)
            result = yukawa.diagram_to_tadpole(d).to_literal()
        else:
            t = yukawa.TadpoleGraph.from_literal(args.input)
            result = yukawa.tadpole_to_diagram(t).to_literal()
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown map {name}")
    record = OutputRecord(
        "bijection",
        {"map": name, "inverse": args.inverse, "input": args.input},
        result,
        args.format,
    )
    record.lines = [result]
    return record


def cmd_bell(args) -> OutputRecord:
    xs = _parse_rationals(args.xs, "--xs")
    value = bell.bell_partial(args.n, args.k, xs)
    record = OutputRecord(
        "bell",
        {"n": args.n, "k": args.k, "xs": [str(x) for x in xs]},
        _fraction_text(value),
        args.format,
    )
    record.lines = [f"B({args.n},{args.k}) = {_fraction_text(value)}"]
    return record


def cmd_asym(args) -> OutputRecord:
    report = asymptotics.asymptotic_fit(args.series, args.n, args.terms)
    payload = {
        "series": report.series,
        "n": report.n,
        "terms": report.terms,
        "exact": str(report.exact),
        "partial_sum": str(report.partial_sum),
        "scaled_remainder": str(report.scaled_remainder),
        "next_coefficient": str(report.next_coefficient),
        "tracking_ratio": str(report.tracking_ratio),
    }
    record = OutputRecord(
        "asym",
        {"series": args.series, "n": args.n, "terms": args.terms},
        payload,
        args.format,
    )
    record.lines = [f"{key} {value}" for key, value in payload.items()]
    return record


def cmd_diffeo(args) -> OutputRecord:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    coeffs = _parse_rationals(args.a, "--a")
    mapping = diffeo.Diffeomorphism.from_values(coeffs)
    seed = args.seed
    if args.kinematics.startswith("seed="):
        seed = _parse_int(args.kinematics[len("seed="):], "the K of --kinematics seed=K")
    elif args.kinematics != "random":
        raise ValueError(
            f"--kinematics must be 'random' or 'seed=K', got {args.kinematics!r}"
        )
    rng = random.Random(seed)
    b_series = diffeo.b_inverse_list(mapping, args.n)
    payload = {
        "seed": seed,
        "b": [_fraction_text(v) for v in b_series],
        "closed_form_agrees": checks.diffeo_closed_form(mapping, args.n)[1],
    }
    if args.n <= diffeo.MAX_AMPLITUDE_POINTS:
        kin = diffeo.KinematicSample.random_nondegenerate(args.n, rng)
        payload["amplitude"] = _fraction_text(
            diffeo.amplitude_recursion(mapping, args.n, kin)
        )
        payload["amplitude_matches"] = payload["amplitude"] == payload["b"][-1]
    record = OutputRecord(
        "diffeo",
        {"a": [str(c) for c in coeffs], "n": args.n, "kinematics": args.kinematics},
        payload,
        args.format,
    )
    record.lines = [f"{key} {value}" for key, value in payload.items()]
    return record


def cmd_oeis_compare(args) -> OutputRecord:
    comparison = oeis.compare_bfile(args.name, args.bfile, order=args.order)
    payload = {
        "series": comparison.series,
        "sequence": comparison.sequence_id,
        "checked": comparison.checked,
        "matches": comparison.matches,
        "skipped": comparison.skipped,
        "mismatches": [list(m) for m in comparison.mismatches],
        "ok": comparison.ok,
    }
    record = OutputRecord(
        "oeis-compare",
        {"name": args.name, "bfile": args.bfile, "order": args.order},
        payload,
        args.format,
    )
    record.lines = [
        f"{comparison.series} vs {comparison.sequence_id}: "
        f"{comparison.matches}/{comparison.checked} matched, "
        f"{comparison.skipped} outside range"
    ]
    for bindex, bvalue, ours in comparison.mismatches:
        record.lines.append(f"  mismatch at {bindex}: file {bvalue}, series {ours}")
    if not comparison.ok:
        record.lines.append("MISMATCH")
    return record


def cmd_verify(args) -> OutputRecord:
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    rng = random.Random(args.seed)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    results = [r for name in names for r in checks.SUITES[name](args.order, rng)]
    payload = {
        "seed": args.seed,
        "order": args.order,
        "checks": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
        ],
        "all_ok": all(ok for _, ok, _ in results),
    }
    record = OutputRecord(
        "verify", {"suite": args.suite, "order": args.order, "seed": args.seed},
        payload, args.format,
    )
    record.lines = [f"seed {args.seed}"]
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        record.lines.append(f"{status} {name}" + (f" ({detail})" if detail else ""))
    record.lines.append("all pass" if payload["all_ok"] else "FAILURES PRESENT")
    return record


# -- entry point ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="Exact chord-diagram enumeration, identities, and asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a named counting series")
    p.add_argument("name", choices=sorted(gfseries.SERIES))
    p.add_argument("--order", type=int, default=8)
    p.add_argument(
        "--format", choices=["table", "json", "csv", "bfile"], default="table"
    )
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("enumerate", help="enumerate diagrams or tadpoles")
    p.add_argument("--kind", choices=["diagrams", "tadpoles"], default="diagrams")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=sorted(FILTERS), default="all")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("bijection", help="apply one of the bijections")
    p.add_argument("map", choices=["phi", "nabla", "theta", "lambda"])
    p.add_argument("--input", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_bijection)

    p = sub.add_parser("bell", help="evaluate a partial Bell polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--xs", required=True, help='comma list, e.g. "1,1/2,3"')
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_bell)

    p = sub.add_parser("asym", help="asymptotic fit of a counting sequence")
    p.add_argument("series", choices=["C", "C2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=1)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_asym)

    p = sub.add_parser("diffeo", help="tree-level amplitude coefficients")
    p.add_argument("--a", required=True, help='coefficients "1,a1,a2,..."')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kinematics", default="random", help='"random" or "seed=K"')
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_diffeo)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["chord", "bell", "diffeo", "yukawa", "all"])
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oeis-compare", help="compare a series against a local b-file")
    p.add_argument("name", choices=sorted(oeis.SEQUENCE_MAP))
    p.add_argument("bfile")
    p.add_argument("--order", type=int, default=gfseries.MAX_ORDER)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(handler=cmd_oeis_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"chordlab: error: {exc}", file=sys.stderr)
        return 2
    print(record.render())
    if args.command == "verify" and not record.payload["all_ok"]:
        return 1
    if args.command == "oeis-compare" and not record.payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
