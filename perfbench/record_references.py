"""Record the reference digests and check names in references.json.

Run once, at the commit that defines the baseline, from the repository root:

    python3 perfbench/record_references.py

Every digest is cross-checked before it is written: the series behind each
`series` and `asym` output must satisfy an identity of gfseries at the same
order, so a digest never records a wrong value.  Later commits must
reproduce these outputs bit for bit; the benchmark counts a job whose output
digest differs as failed.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from chordlab import fps, gfseries  # noqa: E402

import jobs  # noqa: E402


def cli_payload(argv):
    out = jobs.execute(("cli", tuple(argv)))
    assert out["rc"] == 0, argv
    return json.loads(out["stdout"])["payload"]


def identity(name: str, order: int) -> None:
    """The identity at `order`; orders above the verify_identity cap run the
    same checker directly."""
    if order <= gfseries.MAX_ORDER:
        report = gfseries.verify_identity(name, order)
    else:
        report = gfseries.IDENTITIES[name](order)
    if not report.holds:
        raise SystemExit(f"identity {name} fails at order {order}")


def text(series, order):
    return [str(c.numerator) if c.denominator == 1 else str(c) for c in series.coeffs[: order + 1]]


def series_digest(name: str, order: int) -> str:
    payload = cli_payload(["series", name, "--order", str(order)])
    if name in ("C2", "S"):
        identity("two_connected_relation", order)
        want = gfseries.two_connected_series(order)
        if name == "S":
            # S = 1/(1 - C2/x), checked by multiplying back.
            s = gfseries.two_connected_sequence_series(order)
            c2 = fps.divide_by_power(gfseries.two_connected_series(order + 1), 1)
            if s * (fps.one(order) - c2) != fps.one(order):
                raise SystemExit(f"S fails S(1 - C2/x) = 1 at order {order}")
            want = s
    else:
        # connectivity_one_decomposition at `order` checks C1 and B at order + 1.
        identity("connectivity_one_decomposition", order)
        want = gfseries.named_series(name, order + 1)
    if payload != text(want, order):
        raise SystemExit(f"series {name} --order {order} disagrees with the checked series")
    return jobs.digest(payload)


def asym_digest(series: str, n: int) -> str:
    payload = cli_payload(["asym", series, "--n", str(n), "--terms", "5"])
    if series == "C2":
        identity("two_connected_relation", n)
        exact = gfseries.two_connected_series(n)[n]
    else:
        identity("root_removal_connected", n)
        exact = gfseries.connected_series(n)[n]
    if payload["exact"] != str(exact):
        raise SystemExit(f"asym {series} --n {n} disagrees with the checked count")
    return jobs.digest(payload)


def main() -> None:
    digests = {}
    for name in ("C2", "C1", "B", "S"):
        for order in range(32, 65):
            key = jobs.label(("cli", ("series", name, "--order", str(order))))
            digests[key] = series_digest(name, order)
    for series, lo, hi in (("C2", 48, 96), ("C", 100, 200)):
        for n in range(lo, hi + 1):
            key = jobs.label(("cli", ("asym", series, "--n", str(n), "--terms", "5")))
            digests[key] = asym_digest(series, n)
        print(f"asym {series} done", file=sys.stderr)

    checks = {"identities": [r.name for r in gfseries.verify_all_identities(16)]}
    for suite, orders in (("yukawa", range(12, 33)), ("bell", [8]), ("diffeo", [12]), ("chord", [6])):
        seen = set()
        for order in orders:
            payload = cli_payload(["verify", suite, "--order", str(order)])
            assert payload["all_ok"], (suite, order)
            seen.add(tuple(c["name"] for c in payload["checks"]))
        if len(seen) != 1:
            raise SystemExit(f"verify {suite} check names depend on the order")
        checks[f"verify {suite}"] = list(seen.pop())

    out = {"digests": digests, "checks": checks}
    (HERE / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
