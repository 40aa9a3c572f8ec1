"""Command-line frontend.

Subcommands: series, enumerate, bijection, bell, asym, diffeo, verify,
oeis-compare, each declared once in COMMANDS.  A well-formed request is read
straight from its command's specs and builds no parser; the full argparse
parser takes -h and all the reader turns down, so usage, help and error
texts are argparse's.  Output formats: table (default), json, csv, and bfile
for integer series.  `verify` runs the check registry in chordlab.checks,
which the acceptance tests share, with all randomness drawn from one seeded
generator (--seed, default printed with the output); enumeration sizes are
guarded by CHORDLAB_MAX_N.  Invalid input (a ValueError or ZeroDivisionError
from a handler, or an OSError for a file it cannot read) prints "chordlab:
error: ..." on stderr and exits with status 2, as argparse does for
malformed arguments.  A reader that closes the pipe early ends the output
quietly, with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import asymptotics, bell, bijections, checks, chord, diffeo, gfseries, oeis, yukawa

DEFAULT_SEED = 20201103


def _render(command: str, parameters: dict, payload, fmt: str, lines: list[str]) -> str:
    """The request's text: the table lines (a series' b-file too), one JSON
    object, or csv, one row for a dict or a scalar and one per list item."""
    if fmt == "json":
        return json.dumps(
            {"command": command, "parameters": parameters, "payload": payload, "format": fmt},
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        out = []
        for row in rows:
            if isinstance(row, dict):
                out.append(",".join(str(v) for v in row.values()))
            else:
                out.append(str(row))
        return "\n".join(out)
    return "\n".join(lines)


def _parse_rationals(text: str, option: str) -> list[Fraction]:
    """The comma list's values; a blank list has none, and an empty entry
    in any other list is an error."""
    if not text.strip():
        return []
    values = []
    for part in map(str.strip, text.split(",")):
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


def _check_range(option: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo:
        raise ValueError(f"{option} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{option} must be at most {hi}, got {value}")


# -- subcommand handlers --------------------------------------------------------
#
# Each handler returns (parameters, payload, table lines); main adds the
# command and the format.


def cmd_series(args):
    _check_range("--order", args.order, 0, gfseries.MAX_ORDER)
    series = gfseries.named_series(args.name, args.order)
    coeffs = [str(series[i]) for i in range(args.order + 1)]
    lines = [",".join(coeffs)]
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
    return {"name": args.name, "order": args.order}, coeffs, lines


# Each filter: the predicate a listing applies, the Census field that
# counts the diagrams it keeps, and the capped connectivities that the
# census search keeps for a listing (None: filter every diagram).
FILTERS = {
    "all": (lambda d: True, "total", None),
    "connected": (lambda d: d.is_connected(), "connected", (1, 2)),
    "2connected": (lambda d: d.is_k_connected(2), "two_connected", (2,)),
    "connectivity1": (lambda d: d.connectivity() == 1, "connectivity_one", (1,)),
    "indecomposable": (lambda d: d.n > 0 and d.is_indecomposable(),
                       "indecomposable_nonempty", None),
}


def cmd_enumerate(args):
    """List the diagrams (or tadpoles) of size n.  A count-only request for
    diagrams is read from the one-pass census, and a connected, 2connected or
    connectivity1 listing from the same search run whole.  `all` and
    `indecomposable` filter every diagram through FILTERS, the tests' oracle."""
    _check_range("--n", args.n, 1 if args.kind == "tadpoles" else 0)
    items = []
    keep, field, levels = FILTERS[args.filter]
    if args.kind == "tadpoles":
        if args.filter != "all":
            raise ValueError("filters apply to diagrams only")
        items = [t.to_literal() for t in yukawa.enumerate_tadpoles(args.n)]
        count = len(items)
    elif args.count_only:
        count = getattr(chord.census(args.n), field)
    else:
        diagrams = (chord.connectivity_class(args.n, levels) if levels else
                    filter(keep, chord.enumerate_diagrams(args.n)))
        items = [d.to_literal() for d in diagrams]
        count = len(items)
    payload = {"count": count}
    if not args.count_only:
        payload["items"] = items
    lines = [f"count {count}"] + ([] if args.count_only else items)
    return {"kind": args.kind, "n": args.n, "filter": args.filter}, payload, lines


def _fields(text: str, form: str) -> list[str]:
    fields = [part.strip() for part in text.split("|")]
    if len(fields) != form.count("|") + 1:
        raise ValueError(f"--input must have the form '{form}', got {text!r}")
    return fields


def cmd_bijection(args):
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
    else:  # lambda, the last of the map choices
        if args.inverse:
            d = chord.ChordDiagram.from_literal(args.input)
            result = yukawa.diagram_to_tadpole(d).to_literal()
        else:
            t = yukawa.TadpoleGraph.from_literal(args.input)
            result = yukawa.tadpole_to_diagram(t).to_literal()
    return {"map": name, "inverse": args.inverse, "input": args.input}, result, [result]


def cmd_bell(args):
    _check_range("--n", args.n, 0)
    _check_range("--k", args.k, 0)
    xs = _parse_rationals(args.xs, "--xs")
    value = str(bell.bell_partial(args.n, args.k, xs))
    parameters = {"n": args.n, "k": args.k, "xs": [str(x) for x in xs]}
    return parameters, value, [f"B({args.n},{args.k}) = {value}"]


def cmd_asym(args):
    _check_range("--terms", args.terms, 1)
    _check_range("--n", args.n, args.terms + 2, asymptotics.MAX_FIT_N)
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
    lines = [f"{key} {value}" for key, value in payload.items()]
    return {"series": args.series, "n": args.n, "terms": args.terms}, payload, lines


def cmd_diffeo(args):
    _check_range("--n", args.n, 1, gfseries.SERIES_CAP)
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
        "b": [str(v) for v in b_series],
        "closed_form_agrees": checks.diffeo_closed_form(mapping, b_series)[1],
    }
    if args.n <= diffeo.MAX_AMPLITUDE_POINTS:
        kin = diffeo.KinematicSample.random_nondegenerate(args.n, rng)
        payload["amplitude"] = str(diffeo.amplitude_recursion(mapping, args.n, kin))
        payload["amplitude_matches"] = payload["amplitude"] == payload["b"][-1]
    parameters = {"a": [str(c) for c in coeffs], "n": args.n, "kinematics": args.kinematics}
    return parameters, payload, [f"{key} {value}" for key, value in payload.items()]


def cmd_oeis_compare(args):
    _check_range("--order", args.order, 0, gfseries.SERIES_CAP)
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
    lines = [
        f"{comparison.series} vs {comparison.sequence_id}: "
        f"{comparison.matches}/{comparison.checked} matched, "
        f"{comparison.skipped} outside range"
    ]
    for bindex, bvalue, ours in comparison.mismatches:
        lines.append(f"  mismatch at {bindex}: file {bvalue}, series {ours}")
    if not comparison.ok:
        lines.append("MISMATCH")
    return {"name": args.name, "bfile": args.bfile, "order": args.order}, payload, lines


def cmd_verify(args):
    # Only the identity checks of the chord suite are capped in order.
    cap = gfseries.MAX_ORDER if args.suite in ("chord", "all") else None
    _check_range("--order", args.order, 1, cap)
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
    lines = [f"seed {args.seed}"]
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        lines.append(f"{status} {name}" + (f" ({detail})" if detail else ""))
    lines.append("all pass" if payload["all_ok"] else "FAILURES PRESENT")
    return {"suite": args.suite, "order": args.order, "seed": args.seed}, payload, lines


# -- entry point ----------------------------------------------------------------------


FORMATS = ["table", "json", "csv"]
FORMAT_ARG = ("--format", {"choices": FORMATS, "default": "table"})
N_ARG = ("--n", {"type": int, "required": True})
SEED_ARG = ("--seed", {"type": int, "default": DEFAULT_SEED})

# Each subcommand: its help line, its handler, and its arguments as
# (name or flag, add_argument keywords) in the order its usage lists them.
COMMANDS = {
    "series": ("print a named counting series", cmd_series, [
        ("name", {"choices": sorted(gfseries.SERIES)}),
        ("--order", {"type": int, "default": 8}),
        ("--format", {"choices": [*FORMATS, "bfile"], "default": "table"}),
    ]),
    "enumerate": ("enumerate diagrams or tadpoles", cmd_enumerate, [
        ("--kind", {"choices": ["diagrams", "tadpoles"], "default": "diagrams"}),
        N_ARG,
        ("--filter", {"choices": sorted(FILTERS), "default": "all"}),
        ("--count-only", {"action": "store_true"}),
        FORMAT_ARG,
    ]),
    "bijection": ("apply one of the bijections", cmd_bijection, [
        ("map", {"choices": ["phi", "nabla", "theta", "lambda"]}),
        ("--input", {"required": True}),
        ("--inverse", {"action": "store_true"}),
        FORMAT_ARG,
    ]),
    "bell": ("evaluate a partial Bell polynomial", cmd_bell, [
        N_ARG,
        ("--k", {"type": int, "required": True}),
        ("--xs", {"required": True, "help": 'comma list, e.g. "1,1/2,3"'}),
        FORMAT_ARG,
    ]),
    "asym": ("asymptotic fit of a counting sequence", cmd_asym, [
        ("series", {"choices": sorted(asymptotics.MODELS)}),
        N_ARG,
        ("--terms", {"type": int, "default": 1}),
        FORMAT_ARG,
    ]),
    "diffeo": ("tree-level amplitude coefficients", cmd_diffeo, [
        ("--a", {"required": True, "help": 'coefficients "1,a1,a2,..."'}),
        N_ARG,
        ("--kinematics", {"default": "random", "help": '"random" or "seed=K"'}),
        SEED_ARG,
        FORMAT_ARG,
    ]),
    "verify": ("run a verification suite", cmd_verify, [
        ("suite", {"choices": [*checks.SUITES, "all"]}),
        ("--order", {"type": int, "default": 12}),
        SEED_ARG,
        FORMAT_ARG,
    ]),
    "oeis-compare": ("compare a series against a local b-file", cmd_oeis_compare, [
        ("name", {"choices": sorted(oeis.SEQUENCE_MAP)}),
        ("bfile", {}),
        ("--order", {"type": int, "default": gfseries.MAX_ORDER}),
        FORMAT_ARG,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    """The full chordlab parser, which words every usage, help and error."""
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="Exact chord-diagram enumeration, identities, and asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        target = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            target.add_argument(flag, **options)
        target.set_defaults(handler=handler, command=name)
    return parser


def _read(command: str, words: list[str]) -> argparse.Namespace | None:
    """The full parser's Namespace for a well-formed request, read from the
    command's specs; None, for the full parser to word, on a word or value
    starting with "-" or a bad, missing or surplus value."""
    _, handler, arguments = COMMANDS[command]
    specs = dict(arguments)
    positionals = [name for name in specs if not name.startswith("-")]
    given = {name: options.get("default", False if options.get("action") else None)
             for name, options in arguments}
    rest = iter(words)
    for word in rest:
        if not word.startswith("-") and positionals:
            name, text = positionals.pop(0), word
        elif not word.startswith("-") or word not in specs:
            return None
        elif specs[word].get("action"):  # store_true, the one action used
            given[word] = True
            continue
        else:
            name, text = word, next(rest, "-")  # a missing value reads as "-"
            if text.startswith("-"):
                return None
        options = specs[name]
        try:
            given[name] = options.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in options and given[name] not in options["choices"]:
            return None
    if positionals or any(specs[n].get("required") and v is None for n, v in given.items()):
        return None
    return argparse.Namespace(handler=handler, command=command, **{
        name.lstrip("-").replace("-", "_"): value for name, value in given.items()})


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Read a request for a known command straight from COMMANDS; the full
    parser takes whatever that reader turns down, and no command or an
    unknown one."""
    args = argv and argv[0] in COMMANDS and _read(argv[0], argv[1:])
    return args or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        parameters, payload, lines = args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"chordlab: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(_render(args.command, parameters, payload, args.format, lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone: stdout points at /dev/null from here on, so
        # the flush at exit stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if args.command == "verify" and not payload["all_ok"]:
        return 1
    if args.command == "oeis-compare" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
