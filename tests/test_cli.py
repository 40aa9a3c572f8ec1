"""End-to-end CLI behaviour: output formats, determinism, exit codes, and
the b-file comparison tooling."""

import argparse
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import chordlab
from chordlab import checks, cli, fps, oeis, yukawa
from chordlab.cli import COMMANDS, FILTERS, build_parser, main
from chordlab.oeis import SEQUENCE_MAP, compare_bfile, parse_bfile, write_bfile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_table(capsys):
    code, out = run_cli(capsys, "series", "C", "--order", "6")
    assert code == 0
    assert out.strip() == "0,1,1,4,27,248,2830"


def test_series_bfile(capsys):
    code, out = run_cli(capsys, "series", "C2", "--order", "6", "--format", "bfile")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1:] == ["2 1", "3 1", "4 7", "5 63", "6 729"]


@pytest.mark.parametrize("name", ["C2", "C1"])
def test_series_at_order_zero(capsys, name):
    code, out = run_cli(capsys, "series", name, "--order", "0")
    assert code == 0
    assert out == "0\n"


def test_series_json_roundtrip(capsys):
    code, out = run_cli(capsys, "series", "D", "--order", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["payload"] == ["1", "1", "3", "15"]
    assert data["parameters"]["name"] == "D"
    assert json.loads(json.dumps(data)) == data


def test_series_order_cap(capsys):
    code = main(["series", "C", "--order", "65"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "chordlab: error: --order must be at most 64, got 65\n"


def test_series_bfile_rejects_rational_coefficients(capsys, monkeypatch):
    import chordlab.cli as cli_module

    monkeypatch.setattr(
        cli_module.gfseries, "named_series", lambda name, order: fps.geometric(order).log()
    )
    code = main(["series", "C", "--order", "3", "--format", "bfile"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "chordlab: error: bfile output needs integer coefficients\n"


def test_enumerate_diagrams(capsys):
    code, out = run_cli(
        capsys, "enumerate", "--n", "4", "--filter", "connected", "--count-only"
    )
    assert code == 0
    assert out.strip() == "count 27"


@pytest.mark.parametrize("name,count", [("2connected", 10113), ("connectivity1", 28119)])
def test_count_only_at_n7_reads_the_sharded_census(capsys, name, count):
    code, out = run_cli(
        capsys, "enumerate", "--n", "7", "--filter", name, "--count-only"
    )
    assert code == 0
    assert out.strip() == f"count {count}"


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("name", sorted(FILTERS))
def test_count_only_matches_listing(capsys, name, n):
    # Count-only reads the census; the listing applies the filter to every
    # diagram.
    args = ["enumerate", "--n", str(n), "--filter", name, "--format", "json"]
    code, out = run_cli(capsys, *args)
    listed = json.loads(out)["payload"]
    code_only, out_only = run_cli(capsys, *args, "--count-only")
    assert code == code_only == 0
    assert json.loads(out_only)["payload"] == {"count": len(listed["items"])}
    assert listed["count"] == len(listed["items"])


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("name", ["connected", "2connected", "connectivity1"])
def test_class_listing_prints_what_the_filter_path_prints(capsys, monkeypatch, name, fmt):
    # The class listings come from the census search; without their levels
    # the same request filters every diagram through its FILTERS predicate.
    requests = [["enumerate", "--n", str(n), "--filter", name, "--format", fmt]
                for n in range(6)]
    searched = [run_cli(capsys, *argv) for argv in requests]
    keep, field, _ = FILTERS[name]
    monkeypatch.setitem(FILTERS, name, (keep, field, None))
    monkeypatch.setattr(cli.chord, "connectivity_class", None)
    assert searched == [run_cli(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _ in searched)


def test_enumerate_tadpoles(capsys):
    code, out = run_cli(
        capsys, "enumerate", "--kind", "tadpoles", "--n", "3", "--count-only"
    )
    assert code == 0
    assert out.strip() == "count 4"


def test_bijection_phi_commands(capsys):
    code, out = run_cli(capsys, "bijection", "phi", "--input", "2: 3 4 1 2")
    assert code == 0
    assert out.strip() == "2: 4 3 2 1"
    code, out = run_cli(
        capsys, "bijection", "phi", "--input", "2: 4 3 2 1", "--inverse"
    )
    assert out.strip() == "2: 3 4 1 2"


def test_bijection_nabla_roundtrip(capsys):
    _, out = run_cli(capsys, "bijection", "nabla", "--input", "2: 3 4 1 2")
    assert out.strip() == "1: 2 1 | 1: 2 1 | 1"
    _, back = run_cli(
        capsys, "bijection", "nabla", "--input", out.strip(), "--inverse"
    )
    assert back.strip() == "2: 3 4 1 2"


def test_bijection_theta_roundtrip(capsys):
    _, out = run_cli(capsys, "bijection", "theta", "--input", "1: 2 1 | -")
    assert out.strip() == "(0.1;-;)"
    _, back = run_cli(
        capsys, "bijection", "theta", "--input", out.strip(), "--inverse"
    )
    assert back.strip() == "1: 2 1 | 0:"


def test_bijection_theta_on_a_tree_deeper_than_the_recursion_limit(capsys):
    # n disjoint chords on the left: the root absorbs chord 1, and every
    # further chord hangs one level below the one before it
    n = 1200
    seed = f"{n}: " + " ".join(f"{2 * i + 2} {2 * i + 1}" for i in range(n))
    code, out = run_cli(capsys, "bijection", "theta", "--input", f"{seed} | -")
    assert code == 0
    chain = "".join(f"({i};1: 2 1;" for i in range(2, n))
    assert out.strip() == f"(0.1;1: 2 1;{chain}({n};-;){')' * (n - 1)}"
    code, back = run_cli(capsys, "bijection", "theta", "--input", out.strip(), "--inverse")
    assert code == 0
    assert back.strip() == f"{seed} | 0:"


def test_bijection_lambda(capsys):
    _, out = run_cli(
        capsys, "bijection", "lambda", "--input",
        "loops: (0) ; bosons:  ; leg: 0",
    )
    assert out.strip() == "1: 2 1"
    _, back = run_cli(
        capsys, "bijection", "lambda", "--input", "1: 2 1", "--inverse"
    )
    assert back.strip() == "loops: (0) ; bosons:  ; leg: 0"


def test_bell_command(capsys):
    code, out = run_cli(capsys, "bell", "--n", "4", "--k", "2", "--xs", "1,1,1")
    assert code == 0
    assert out.strip() == "B(4,2) = 7"


def test_a_blank_value_list_has_no_values(capsys):
    code, out = run_cli(capsys, "bell", "--n", "0", "--k", "0", "--xs", "")
    assert code == 0
    assert out.strip() == "B(0,0) = 1"


def test_bell_command_with_more_blocks_than_the_recursion_limit(capsys):
    # S(n, n-2): one block of three, or two blocks of two
    code, out = run_cli(capsys, "bell", "--n", "1102", "--k", "1100", "--xs", "1,1,1")
    assert code == 0
    assert out.strip() == f"B(1102,1100) = {comb(1102, 3) + 3 * comb(1102, 4)}"


def test_asym_command(capsys):
    code, out = run_cli(capsys, "asym", "C", "--n", "20", "--terms", "1")
    assert code == 0
    assert "tracking_ratio" in out


def test_diffeo_command_deterministic(capsys):
    args = ("diffeo", "--a", "1,1/2,1/3", "--n", "4", "--kinematics", "seed=5")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    assert "closed_form_agrees True" in first
    assert "amplitude_matches True" in first


@pytest.mark.parametrize("argv,reversions", [
    (("diffeo", "--a", "1,1/2,1/3", "--n", "8"), 1),
    (("verify", "diffeo", "--order", "12"), 3),
])
def test_diffeo_requests_revert_f_once_per_b_list(capsys, monkeypatch, argv, reversions):
    # verify diffeo adds the ODE check's inverse and the negative control's b
    calls = []
    reversion = fps.FormalPowerSeries.reversion

    def counted(self):
        calls.append(self.order)
        return reversion(self)

    monkeypatch.setattr(fps.FormalPowerSeries, "reversion", counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == reversions


def test_verify_yukawa_lists_each_loop_number_once(capsys, monkeypatch):
    # the 4-loop listing serves both the count and the image of lambda
    calls = []
    listing = yukawa.enumerate_tadpoles

    def counted(loops):
        calls.append(loops)
        return listing(loops)

    monkeypatch.setattr(yukawa, "enumerate_tadpoles", counted)
    code, out = run_cli(capsys, "verify", "yukawa", "--order", "12")
    assert code == 0 and "yukawa:lambda_bijective:loops=4" in out
    assert calls == [1, 2, 3, 4]


def test_verify_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "bell", "--order", "6")
    assert code == 0
    assert "all pass" in out
    assert "seed" in out


@pytest.mark.parametrize("seed", [11801])
def test_verify_diffeo_passes_where_the_first_mapping_drawn_is_the_identity(capsys, seed):
    # At this seed all four coefficients first drawn are 0, so F(t) = t is
    # its own inverse; they are drawn again rather than failing the control.
    code, out = run_cli(capsys, "verify", "diffeo", "--seed", str(seed))
    assert code == 0
    assert out.splitlines()[-1] == "all pass"


def test_verify_all_is_deterministic(capsys):
    code, out = run_cli(capsys, "verify", "all", "--order", "6", "--seed", "99")
    assert code == 0
    _, again = run_cli(capsys, "verify", "all", "--order", "6", "--seed", "99")
    assert out == again


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("suite", ["chord", "bell", "diffeo", "yukawa", "all"])
def test_verify_passes_at_small_orders(capsys, suite, order):
    code, out = run_cli(capsys, "verify", suite, "--order", str(order))
    assert code == 0
    assert out.splitlines()[-1] == "all pass"


@pytest.mark.parametrize(
    "suite,order",
    [("yukawa", 12), ("yukawa", 32), ("bell", 8), ("diffeo", 12), ("chord", 6)],
)
def test_verify_check_names_match_benchmark_references(capsys, suite, order):
    # The benchmark's verify jobs fail on any name not recorded here.
    references = Path(__file__).parents[1] / "perfbench" / "references.json"
    recorded = json.loads(references.read_text())["checks"][f"verify {suite}"]
    code, out = run_cli(capsys, "verify", suite, "--order", str(order))
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()[1:-1]] == recorded


@pytest.mark.parametrize("order,bound", [(3, 3), (12, 5)])
def test_amplitude_check_reports_the_bound_it_checked(capsys, order, bound):
    code, out = run_cli(capsys, "verify", "diffeo", "--order", str(order))
    assert code == 0
    assert f"pass diffeo:amplitude_recursion (n<={bound})" in out.splitlines()


def outcome(capsys, argv):
    """main's exit code, whether returned or raised by argparse, and its
    output."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VALID_CALLS = [
    ("series", "C", "--order", "4", "--format", "json"),
    ("enumerate", "--n", "3", "--filter", "connected", "--count-only"),
    ("bijection", "phi", "--input", "2: 3 4 1 2", "--inverse"),
    ("bell", "--n", "4", "--k", "2", "--xs", "1,1,1", "--format", "csv"),
    ("asym", "C", "--n", "20", "--terms", "2"),
    ("diffeo", "--a", "1,1/2", "--n", "3", "--kinematics", "seed=3"),
    ("verify", "bell", "--order", "3", "--seed", "7"),
    ("oeis-compare", "C", "missing-bfile.txt", "--order", "5"),
]
DISPATCH_CORPUS = [
    *[(name, "-h") for name in COMMANDS],
    *VALID_CALLS,
    ("series", "C", "--ord", "4"),
    ("enumerate", "--n=5", "--count-only"),
    ("enumerate", "--n", "-1"),
    ("oeis-compare", "C", "--order", "5", "missing-bfile.txt"),
    ("series", "C", "--order", "3", "--order", "5"),
    ("bijection", "phi", "--input", ""),
    ("bijection", "phi", "--input", "--inverse"),
    ("enumerate", "--n", "3", "--filter", "loops"),
    ("bijection", "phi", "--inverse"),
    ("bijection", "phi", "--input"),
    ("oeis-compare", "C"),
    ("series", "C", "name", "D"),
    ("series", "C", "--order", "x"),
    ("verify", "fps"),
    ("bell", "--n", "2", "--xs", "1"),
    ("series", "C", "--order", "3", "extra"),
    ("verify", "all", "--order", "2", "--bogus"),
    ("series", "C", "--", "--order"),
    (),
    ("-h",),
    ("sieries", "C"),
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS)
def test_dispatch_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    if argv in VALID_CALLS:
        assert cli.parse_args(list(argv)) == build_parser().parse_args(argv)
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "parse_args", lambda argv: build_parser().parse_args(argv))
    assert got == outcome(capsys, argv)


def test_a_valid_request_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["series", "C", "--order", "4"]) == 0
    assert built == []
    assert outcome(capsys, ["-h"])[0] == 0
    assert len(built) == 9
    built.clear()
    assert outcome(capsys, ["series", "C", "extra"])[0] == 2
    assert len(built) == 9


MODULES_AFTER_MAIN = """
import contextlib, io, sys
from chordlab.cli import main
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(sorted(set(sys.modules) ^ before))
"""


@pytest.mark.parametrize("argv", [*VALID_CALLS, ("verify", "all", "--order", "6")])
def test_a_valid_request_imports_no_module(tmp_path, argv):
    # The first argparse parser of a process imports locale through gettext.
    env = dict(os.environ, PYTHONPATH=str(Path(chordlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", MODULES_AFTER_MAIN, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def test_command_specs_use_only_what_the_reader_reads():
    for _, _, arguments in COMMANDS.values():
        for flag, options in arguments:
            assert set(options) <= {"choices", "default", "required", "type", "help", "action"}
            assert options.get("action", "store_true") == "store_true", flag
            # The reader catches int's ValueError, and takes a default as is.
            assert options.get("type", int) is int, flag
            assert not (options.get("required") and "default" in options), flag
            assert not ("type" in options and isinstance(options.get("default"), str)), flag


@pytest.mark.parametrize(
    "argv,code",
    [(("series", "C", "--order", "4"), 0), (("bijection", "theta", "--input", "0:"), 2),
     (("asym", "--help"), 0), (("series", "C", "--order", "3", "extra"), 2)],
)
def test_python_dash_m_runs_the_cli(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(chordlab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "chordlab", *argv], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == outcome(capsys, argv)
    assert done.returncode == code


def test_a_closed_pipe_ends_the_output_quietly():
    # The listing (~450 kB) outgrows the pipe's buffer, so the CLI is still
    # writing when the reader closes its end.
    env = dict(os.environ, PYTHONPATH=str(Path(chordlab.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "chordlab", "enumerate", "--n", "6"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"count 10395\n"
        proc.stdout.close()
        errors = proc.stderr.read().decode()
        code = proc.wait()
    assert code == 1
    assert errors == ""  # no traceback, nor one from the flush at exit


def test_verify_exits_nonzero_on_failure(capsys, monkeypatch):
    monkeypatch.setitem(
        checks.SUITES, "bell", lambda order, rng: [("forced", False, "")]
    )
    code, out = run_cli(capsys, "verify", "bell", "--order", "4")
    assert code == 1
    assert "FAIL forced" in out
    assert "FAILURES PRESENT" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "C", "--order", "-1"),
        ("bijection", "phi", "--input", "2:3"),
        ("bijection", "phi", "--input", "x"),
        ("diffeo", "--a", "0,1", "--n", "3"),
        ("asym", "C", "--n", "3", "--terms", "5"),
        ("enumerate", "--n", "11"),
        ("enumerate", "--n", "-1"),
        ("enumerate", "--kind", "tadpoles", "--n", "2", "--filter", "connected"),
        ("bijection", "theta", "--inverse", "--input", "(0;-;"),
        ("bijection", "theta", "--inverse", "--input", "(0;-"),
        ("series", "C", "--order", "0", "--format", "bfile"),
        ("series", "C2", "--order", "1", "--format", "bfile"),
        ("bell", "--n", "3", "--k", "2", "--xs", "1,,2"),
        ("diffeo", "--a", "1,,1/2", "--n", "3"),
        ("bell", "--n", "2", "--k", "1", "--xs", "1,2,"),
    ],
    ids=["negative-order", "short-literal", "bad-literal", "not-tangent",
         "too-few-points", "guard", "negative-size", "tadpole-filter",
         "truncated-tree", "unterminated-tree-field", "empty-bfile",
         "empty-bfile-two-connected", "empty-xs-entry", "empty-a-entry",
         "trailing-comma"],
)
def test_bad_input_prints_one_error_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("chordlab: error: ")


@pytest.mark.parametrize("suite", ["chord", "all"])
def test_verify_order_error_names_the_option(capsys, suite):
    code = main(["verify", suite, "--order", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "chordlab: error: --order must be at least 1, got 0\n"


TADPOLE_FORM = (
    "tadpole literal must have the form "
    "'loops: (v ...)... ; bosons: v-w, ... ; leg: v', got '{}'"
)
NOT_AN_INVOLUTION = "partner array is not a fixed-point-free involution"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("diffeo", "--a", "1,2", "--n", "0"), "--n must be at least 1, got 0"),
        (("diffeo", "--a", "1,2", "--n", "-2"), "--n must be at least 1, got -2"),
        (("series", "C", "--order", "0", "--format", "bfile"),
         "C has no nonzero coefficient through x^0; raise --order for a b-file"),
        (("bijection", "nabla", "--inverse", "--input", "1: 2 1"),
         "--input must have the form 'c1 | c2 | k', got '1: 2 1'"),
        (("bijection", "nabla", "--inverse", "--input", "1: 2 1 | 1: 2 1 | 1 | 1"),
         "--input must have the form 'c1 | c2 | k', got '1: 2 1 | 1: 2 1 | 1 | 1'"),
        (("bijection", "theta", "--input", "0:"),
         "--input must have the form 'left | right', got '0:'"),
        (("bijection", "theta", "--input", "0: | 0: | 0:"),
         "--input must have the form 'left | right', got '0: | 0: | 0:'"),
        (("bijection", "theta", "--input", "1: 2 1 | x"),
         "chord diagram literal must have the form 'n: p1 ... p2n', got 'x'"),
        (("bijection", "phi", "--input", "1: 2 1 x"),
         "chord diagram literal must have the form 'n: p1 ... p2n', got '1: 2 1 x'"),
        (("bijection", "phi", "--input", "2: 3"),
         "chord diagram literal '2: 3' has 1 partners, expected 4"),
        (("bijection", "lambda", "--inverse", "--input", "garbage"),
         "chord diagram literal must have the form 'n: p1 ... p2n', got 'garbage'"),
        (("bijection", "nabla", "--inverse", "--input", "1: 2 1 | 1: 2 1 | x"),
         "the k of --input 'c1 | c2 | k' must be an integer, got 'x'"),
        (("bell", "--n", "2", "--k", "1", "--xs", "1,a"),
         "--xs entries must be rationals such as 1/2, got 'a'"),
        (("bell", "--n", "2", "--k", "1", "--xs", "1/0,1"),
         "--xs entries must be rationals such as 1/2, got '1/0'"),
        (("diffeo", "--a", "1,x", "--n", "2"),
         "--a entries must be rationals such as 1/2, got 'x'"),
        (("diffeo", "--a", "1,2", "--n", "2", "--kinematics", "seed=x"),
         "the K of --kinematics seed=K must be an integer, got 'x'"),
        (("diffeo", "--a", "1,2", "--n", "2", "--kinematics", "banana"),
         "--kinematics must be 'random' or 'seed=K', got 'banana'"),
        (("bijection", "lambda", "--input", "loops (0) ; bosons ; leg 0"),
         TADPOLE_FORM.format("loops (0) ; bosons ; leg 0")),
        (("bijection", "lambda", "--input", "loops: (0 1 2 ; bosons: 1-2 ; leg: 0"),
         TADPOLE_FORM.format("loops: (0 1 2 ; bosons: 1-2 ; leg: 0")),
        (("bijection", "lambda", "--input", "loops: (0)(1 2) ; bosons: 1-x ; leg: 0"),
         TADPOLE_FORM.format("loops: (0)(1 2) ; bosons: 1-x ; leg: 0")),
        (("bijection", "lambda", "--input", "loops: (0)(1 2) ; bosons: 1-2 ; leg: q"),
         TADPOLE_FORM.format("loops: (0)(1 2) ; bosons: 1-2 ; leg: q")),
        (("bijection", "lambda", "--input", "loops: (0)(1 2) ; bosons: 1-2 ; leg: 0"),
         "only connected 1PI tadpoles correspond to connected diagrams"),
        (("bijection", "lambda", "--input", "loops: (0 1 2)(2 1 0) ; bosons: 1-2 ; leg: 0"),
         "tadpole literal 'loops: (0 1 2)(2 1 0) ; bosons: 1-2 ; leg: 0' lists a loop vertex twice"),
        (("bijection", "lambda", "--input", "loops: (0 1 2) ; bosons: 1-1 ; leg: 0"),
         "tadpole literal 'loops: (0 1 2) ; bosons: 1-1 ; leg: 0': "
         "every vertex but the leg needs a boson partner"),
        (("bijection", "nabla", "--inverse", "--input", "2: 4 3 2 1 | 1: 2 1 | 1"),
         "both parts must be connected and nonempty"),
        (("bijection", "theta", "--inverse", "--input", "(;-;)"),
         "tree literal '(;-;)': a stack is integer labels joined by '.', got ''"),
        (("bijection", "theta", "--inverse", "--input", "(a;-;)"),
         "tree literal '(a;-;)': a stack is integer labels joined by '.', got 'a'"),
        (("bijection", "nabla", "--inverse", "--input", "1: 2 1 | 2: 2 2 4 3 | 1"),
         f"chord diagram literal '2: 2 2 4 3': {NOT_AN_INVOLUTION}"),
        (("bijection", "phi", "--input", "2: 2 1 4 5"),
         f"chord diagram literal '2: 2 1 4 5': {NOT_AN_INVOLUTION}"),
        (("bijection", "theta", "--input", "1: 2 1 | 1: 1 2"),
         f"chord diagram literal '1: 1 2': {NOT_AN_INVOLUTION}"),
        (("bijection", "lambda", "--inverse", "--input", "1: 3 1"),
         f"chord diagram literal '1: 3 1': {NOT_AN_INVOLUTION}"),
        (("bijection", "phi", "--input=-1:"),
         "chord diagram literal must have the form 'n: p1 ... p2n', got '-1:'"),
        (("series", "C", "--order", "-1"), "--order must be at least 0, got -1"),
        (("series", "C", "--order", "65"), "--order must be at most 64, got 65"),
        (("verify", "chord", "--order", "65"), "--order must be at most 64, got 65"),
        (("enumerate", "--n", "-1"), "--n must be at least 0, got -1"),
        (("enumerate", "--kind", "tadpoles", "--n", "0"), "--n must be at least 1, got 0"),
        (("asym", "C", "--n", "500"), "--n must be at most 200, got 500"),
        (("asym", "C", "--n", "3", "--terms", "5"), "--n must be at least 7, got 3"),
        (("asym", "C", "--n", "20", "--terms", "0"), "--terms must be at least 1, got 0"),
        (("bell", "--n", "-1", "--k", "1", "--xs", "1"), "--n must be at least 0, got -1"),
        (("bell", "--n", "1", "--k", "-1", "--xs", "1"), "--k must be at least 0, got -1"),
        (("oeis-compare", "C", "missing-bfile.txt", "--order", "-1"),
         "--order must be at least 0, got -1"),
        (("oeis-compare", "C", "missing-bfile.txt", "--order", "300"),
         "--order must be at most 256, got 300"),
        (("bijection", "nabla", "--inverse", "--input", "1: 2 1 | 1: 2 1 | 5"),
         "interval index 5 out of range 1..1"),
        (("bijection", "phi", "--input", "2: 2 1 4 3"),
         "root share decomposition needs a connected diagram on >= 2 chords"),
        (("bijection", "phi", "--inverse", "--input", "3: 2 1 4 3 6 5"),
         "inverse needs an indecomposable diagram with exactly two components"),
        (("diffeo", "--a", "1,2", "--n", "257"), "--n must be at most 256, got 257"),
        (("bell", "--n", "3", "--k", "2", "--xs", "1,,2"),
         "--xs entries must be rationals such as 1/2, got ''"),
        (("bell", "--n", "2", "--k", "1", "--xs", "1,2,"),
         "--xs entries must be rationals such as 1/2, got ''"),
        (("diffeo", "--a", "1,,1/2", "--n", "3"),
         "--a entries must be rationals such as 1/2, got ''"),
    ],
)
def test_error_names_the_option(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"chordlab: error: {message}\n"


def test_count_only_guard_error_matches_listing(capsys):
    main(["enumerate", "--n", "11"])
    listing = capsys.readouterr().err
    code = main(["enumerate", "--n", "11", "--count-only"])
    assert code == 2
    assert capsys.readouterr().err == listing
    assert "set CHORDLAB_MAX_N to raise it" in listing


def test_unreadable_bfile_prints_one_error_line(tmp_path, capsys):
    code = main(["oeis-compare", "C", str(tmp_path / "missing.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("chordlab: error: [Errno 2] No such file or directory")


def test_non_integer_guard_prints_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("CHORDLAB_MAX_N", "abc")
    code = main(["enumerate", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "chordlab: error: CHORDLAB_MAX_N must be an integer, got 'abc'\n"


def test_oeis_compare_roundtrip(tmp_path, capsys):
    for name in SEQUENCE_MAP:
        path = tmp_path / f"b_{name}.txt"
        write_bfile(name, str(path), order=10)
        assert parse_bfile(str(path))
        comparison = compare_bfile(name, str(path), order=10)
        assert comparison.ok, comparison
        code, out = run_cli(
            capsys, "oeis-compare", name, str(path), "--order", "10"
        )
        assert code == 0
        assert "MISMATCH" not in out


@pytest.mark.parametrize("name", [name for name, (_, shift) in SEQUENCE_MAP.items() if not shift])
def test_series_bfile_passes_oeis_compare_at_shift_zero(tmp_path, capsys, name):
    # `series --format bfile` indexes by the power of x and `oeis-compare` by
    # the catalogue index, which agree where the declared shift is 0
    code, out = run_cli(capsys, "series", name, "--order", "12", "--format", "bfile")
    assert code == 0
    path = tmp_path / f"b_{name}.txt"
    path.write_text(out)
    code, out = run_cli(capsys, "oeis-compare", name, str(path), "--order", "12")
    assert code == 0
    assert "MISMATCH" not in out


def test_oeis_compare_detects_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_bfile("C", str(path), order=8)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].split()[0] + " 999"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "oeis-compare", "C", str(path), "--order", "8")
    assert code == 1
    assert "MISMATCH" in out
    assert "999" in out


@pytest.mark.parametrize("use", [lambda path: compare_bfile("X", path),
                                 lambda path: write_bfile("X", path, order=5)],
                         ids=["compare", "write"])
def test_bfile_names_the_known_sequences(tmp_path, use):
    with pytest.raises(KeyError, match="no catalogued sequence is declared for 'X'; "
                                       "known: A, C, C2, D, I"):
        use(str(tmp_path / "b.txt"))


def test_oeis_parse_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_bfile(str(path))


def test_paper_prefixes_in_bfile_convention(tmp_path):
    # the declared offsets put the catalogued prefixes at these b-indices
    path = tmp_path / "b.txt"
    write_bfile("A", str(path), order=7)
    entries = dict(parse_bfile(str(path)))
    assert [entries[i] for i in range(8)] == [1, 2, 3, 10, 63, 558, 6226, 82836]
    write_bfile("C2", str(path), order=8)
    entries = dict(parse_bfile(str(path)))
    assert [entries[i] for i in range(5)] == [1, 1, 7, 63, 729]


def _write_rational_bfile(path, monkeypatch):
    # log(1/(1-x)) = x + x^2/2 + ...: its x^2 coefficient is not an integer
    monkeypatch.setattr(oeis, "named_series", lambda name, order: fps.geometric(order).log())
    write_bfile("C", path, order=3)


def _parse_non_integer_entry(path, monkeypatch):
    Path(path).write_text("0 1\n1 x\n")
    parse_bfile(path)


@pytest.mark.parametrize(
    "call,message",
    [
        (_parse_non_integer_entry, "{path}:2: non-integer entry"),
        (_write_rational_bfile, "b-files hold integers only"),
    ],
    ids=["non-integer-entry", "rational-coefficient"],
)
def test_bfile_input_checks_name_what_is_wrong(tmp_path, monkeypatch, call, message):
    path = str(tmp_path / "b.txt")
    with pytest.raises(ValueError) as raised:
        call(path, monkeypatch)
    assert str(raised.value) == message.format(path=path)
