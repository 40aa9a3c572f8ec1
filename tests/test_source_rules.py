"""Rules every change to the library keeps: the benchmark's span targets
resolve, and the package parses as the oldest Python it declares."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chordlab").glob("*.py"))


def test_every_span_target_resolves():
    # loaded by path, as perfbench is no package; `install` is not called
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for owner, attribute, name in spans.TARGETS:
        try:
            inspect.getattr_static(owner, attribute)
        except AttributeError:
            missing.append((getattr(owner, "__name__", owner), attribute, name))
    assert len(spans.TARGETS) > 0
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
