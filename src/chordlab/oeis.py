"""Comparison of the named series against local b-files.

A b-file is the standard two-column text format: one "n a(n)" pair per
line, '#' starting a comment.  Nothing is fetched from the network; the
caller supplies the file.

Index conventions drift between catalogued sequences and the chord-count
grading used here, so each supported sequence carries a declared offset:
our coefficient [x^(b-file index + shift)] is compared against the value.
The declarations below follow the catalogue entries the series are known
under; verify them against a freshly downloaded b-file before relying on
the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gfseries import MAX_ORDER, named_series

# series name -> (sequence id, shift): series index = b-file index + shift
SEQUENCE_MAP = {
    "D": ("A001147", 0),   # (2n-1)!!, a(0) = 1
    "C": ("A000699", 0),   # connected diagrams, a(1) = 1, a(2) = 1, a(3) = 4
    "C2": ("A049464", 2),  # 2-connected / skeleton vertex counts, a(0) = 1
    "I": ("A000698", 0),   # indecomposable diagrams, a(0) = 1
    "A": ("A088221", 0),   # pairs of connected diagrams, a(0) = 1
}


@dataclass(frozen=True)
class BfileComparison:
    series: str
    sequence_id: str
    checked: int
    matches: int
    mismatches: tuple[tuple[int, int, str], ...]  # (b-index, file value, ours)
    skipped: int  # entries outside the computable window

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.mismatches


def parse_bfile(path: str) -> list[tuple[int, int]]:
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'n a(n)', got {raw!r}")
            try:
                entries.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer entry") from exc
    return entries


def _sequence(series: str) -> tuple[str, int]:
    """The declared (sequence id, shift) of a series."""
    if series not in SEQUENCE_MAP:
        raise KeyError(f"no catalogued sequence is declared for {series!r}; "
                       f"known: {', '.join(sorted(SEQUENCE_MAP))}")
    return SEQUENCE_MAP[series]


def compare_bfile(series: str, path: str, order: int = MAX_ORDER) -> BfileComparison:
    sequence_id, shift = _sequence(series)
    values = named_series(series, order)
    checked = matches = skipped = 0
    mismatches = []
    for bindex, bvalue in parse_bfile(path):
        our_index = bindex + shift
        if not 0 <= our_index <= order:
            skipped += 1
            continue
        ours = values[our_index]
        checked += 1
        if ours == Fraction(bvalue):
            matches += 1
        else:
            mismatches.append((bindex, bvalue, str(ours)))
    return BfileComparison(
        series, sequence_id, checked, matches, tuple(mismatches), skipped
    )


def write_bfile(series: str, path: str, order: int) -> None:
    """Emit our coefficients in b-file form under the declared offset."""
    sequence_id, shift = _sequence(series)
    values = named_series(series, order)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {sequence_id} prefix generated from the {series} series\n")
        for bindex in range(max(0, -shift), order - shift + 1):
            value = values[bindex + shift]
            if value.denominator != 1:
                raise ValueError("b-files hold integers only")
            handle.write(f"{bindex} {value.numerator}\n")
