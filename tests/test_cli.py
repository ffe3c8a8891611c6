"""End-to-end command-line behavior: goldens, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import akizuki
from akizuki import RationalField
from akizuki.cli import main
from akizuki.errors import FormatError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# normal forms


def test_nf_w_square(capsys):
    code, out, _ = run_cli(
        capsys, "nf", "w^2", "--prec", "14", "--output", "machine"
    )
    assert code == 0
    assert out.splitlines() == [
        "X = -t^6 - 2t^10",
        "Y = 2t^3 + 2t^7",
        "level = 14",
    ]


def test_nf_pretty(capsys):
    code, out, _ = run_cli(capsys, "nf", "1/(1 - t*w)", "--prec", "6")
    assert code == 0
    assert out.strip() == "(1) + (t + 2t^5)*w mod t^6"


def test_nf_division_by_t_fails(capsys):
    code, _, err = run_cli(capsys, "nf", "1/t")
    assert code == 1
    assert "error" in err


def test_trailing_token_is_quoted_as_written(capsys):
    code, out, err = run_cli(capsys, "nf", "t t")
    assert (code, out, err) == (2, "", "parse error: trailing input at 't'\n")


def test_unclosed_parenthesis_names_the_token_found(capsys):
    code, out, err = run_cli(capsys, "nf", "(1 2)")
    assert (code, out, err) == (2, "", "parse error: expected ')', got '2'\n")


def test_nf_garbage_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "nf", "t @ w")
    assert code == 2
    assert "parse error" in err
    code, _, err = run_cli(capsys, "nf", "t * * w")
    assert code == 2


def test_nf_field_override(capsys):
    code, out, _ = run_cli(
        capsys, "nf", "w^2", "--field", "fp:2", "--prec", "14", "--output", "machine"
    )
    assert code == 0
    assert out.splitlines() == ["X = t^6", "Y = 0", "level = 14"]


def test_nf_prec_out_of_range(capsys):
    code, _, err = run_cli(capsys, "nf", "w", "--prec", "99")
    assert code == 1
    assert "capacity" in err


# ----------------------------------------------------------------------
# residues and duality


def test_res_golden(capsys):
    code, out, _ = run_cli(capsys, "res", "pair(1;1+t)", "gf(t;1;2)")
    assert code == 0
    assert out.strip() == "t^-2 + 2t^-1"


def test_duality_forward_golden(capsys):
    code, out, _ = run_cli(capsys, "duality", "forward", "pair(0;1)", "gf(1;0;1)")
    assert code == 0
    assert out.strip() == "hom(1;0;1)"


def test_duality_inverse_golden(capsys):
    code, out, _ = run_cli(capsys, "duality", "inverse", "pair(0;1)", "hom(3;1;t)")
    assert code == 0
    assert out.strip() == "gf(t;1;3)"


def test_duality_inverse_needs_unit_rho(capsys):
    code, _, err = run_cli(capsys, "duality", "inverse", "pair(1;t)", "hom(1;1;0)")
    assert code == 1
    assert "unit" in err


def test_duality_roundtrip_via_text(capsys):
    _, forward_out, _ = run_cli(
        capsys, "duality", "forward", "pair(1+t;2)", "gf(1;t;4)"
    )
    code, back_out, _ = run_cli(
        capsys, "duality", "inverse", "pair(1+t;2)", forward_out.strip()
    )
    assert code == 0
    assert back_out.strip() == "gf(1;t;4)"


def test_hom_eval(capsys):
    code, out, _ = run_cli(capsys, "hom-eval", "hom(2;1;t)", "1")
    assert code == 0
    assert out.strip() == "t^-2"
    code, out, _ = run_cli(capsys, "hom-eval", "hom(2;1;t)", "w")
    assert code == 0
    assert out.strip() == "t^-1"


# ----------------------------------------------------------------------
# cohomology queries


def test_h1_eq(capsys):
    code, out, _ = run_cli(capsys, "h1", "eq", "gf(1;0;1)", "gf(t;0;2)")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "h1", "eq", "gf(1;0;1)", "gf(0;1;1)")
    assert (code, out.strip()) == (0, "false")


def test_h1_zero(capsys):
    code, out, _ = run_cli(capsys, "h1", "zero", "gf(0;0;3)")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "h1", "zero", "gf(0;1;1)")
    assert (code, out.strip()) == (0, "false")


def test_h1_act_golden(capsys):
    code, out, _ = run_cli(capsys, "h1", "act", "w", "gf(0;1;6)")
    assert (code, out.strip()) == (0, "gf(0;2;3)")


def test_h1_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "h1", "eq", "gf(1;0;1)")
    assert code == 2
    assert "expected" in err


# ----------------------------------------------------------------------
# the completed ring


def test_complete_embed(capsys):
    code, out, _ = run_cli(capsys, "complete", "embed", "1 + w")
    assert code == 0
    assert out.strip() == "comp(1 + 2t^3 + 2t^7 + 2t^15;1)"


def test_complete_nilpotent(capsys):
    eps = "comp(t^3+t^7+t^15;1)"
    code, out, _ = run_cli(capsys, "complete", "mul", eps, eps)
    assert code == 0
    assert out.strip() == "comp(0;0)"


def test_complete_add(capsys):
    code, out, _ = run_cli(capsys, "complete", "add", "comp(1;t)", "comp(t;1)")
    assert code == 0
    assert out.strip() == "comp(1 + t;1 + t)"


def test_complete_mul_unit_route_agrees(capsys):
    a, b = "comp(1+t;t^2)", "comp(2;1+t^3)"
    _, closed, _ = run_cli(capsys, "complete", "mul", a, b)
    code, composed, _ = run_cli(
        capsys, "complete", "mul", a, b, "--unit", "comp(1;0)"
    )
    assert code == 0
    assert composed == closed


def test_complete_mul_bad_unit(capsys):
    code, _, err = run_cli(
        capsys, "complete", "mul", "comp(1;0)", "comp(1;0)", "--unit", "comp(0;1)"
    )
    assert code == 1
    assert "unit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["complete", "add", "comp(1;0)", "comp(1;0)", "--unit", "comp(0;0)"],
        ["complete", "embed", "1 + w", "--unit", "comp(1;0)"],
    ],
    ids=["add", "embed"],
)
def test_unit_outside_complete_mul_is_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"parse error: --unit applies to complete mul, not complete {argv[1]}\n"


# ----------------------------------------------------------------------
# extraction, selftest, config plumbing


def test_extract(capsys):
    code, out, _ = run_cli(capsys, "extract", "pair(1;1+t)", "--prec", "5")
    assert code == 0
    assert out.strip() == "pair(1;1 + t)"


# Kernel calls of each command in either output mode: a printed series is
# converted from its stored basis for the pretty text or for the machine
# rows, never for both.  A sum or difference of normal forms is one call per
# part that screening leaves, and each generator g_i two (d^2 and 2d).
KERNEL_CALLS = [
    (["nf", "1/(1-t*w) + w^2", "--prec", "14"], 15),
    (["complete", "mul", "comp(1+t;t)", "comp(2;t^2)"], 5),
    (["duality", "forward", "pair(1;1+t)", "gf(t;1;3)"], 5),
    (["extract", "pair(1;1+t)", "--prec", "5"], 2),
    (["nf", "g1 + g2"], 7),
]


@pytest.mark.parametrize("output", ["pretty", "machine"])
@pytest.mark.parametrize(
    "argv, calls", KERNEL_CALLS, ids=["nf", "complete", "duality", "extract", "generators"]
)
def test_each_command_formats_only_what_it_prints(capsys, kernel_calls, argv, calls, output):
    code, out, _ = run_cli(capsys, *argv, "--output", output)
    assert code == 0 and out
    assert len(kernel_calls) == calls


def test_selftest_ok_and_deterministic(capsys):
    code, first, _ = run_cli(
        capsys, "selftest", "series", "--count", "3", "--output", "machine"
    )
    assert code == 0
    assert first.endswith("selftest series: ok\n")
    code, second, _ = run_cli(
        capsys, "selftest", "series", "--count", "3", "--output", "machine"
    )
    assert code == 0
    assert first == second


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selftest_count_below_one_is_parse_error(capsys, count):
    code, out, err = run_cli(capsys, "selftest", "series", "--count", count)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("parse error: ")


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("flag", ["--seed", "--count"])
def test_selftest_flags_belong_to_selftest_only(capsys, flag):
    code, out, err = run_cli(capsys, "nf", "t", flag, "1")
    assert_usage_error(code, out, err)
    assert flag in err


def test_selftest_unknown_suite_is_usage_error(capsys):
    assert_usage_error(*run_cli(capsys, "selftest", "bogus"))


def test_no_command_is_usage_error(capsys):
    assert_usage_error(*run_cli(capsys))


@pytest.mark.parametrize(
    "argv",
    [
        ["res", "pair(1;0)", "gf(1;0;1)"],
        ["duality", "forward", "pair(0;1)", "gf(1;0;1)"],
        ["duality", "inverse", "pair(0;1)", "hom(1;1;0)"],
        ["selftest", "series"],
        ["complete", "add", "comp(1;0)", "comp(1;0)"],
        ["complete", "mul", "comp(1;0)", "comp(1;0)"],
        ["complete", "embed", "1+w"],
    ],
    ids=["res", "duality-forward", "duality-inverse", "selftest",
         "complete-add", "complete-mul", "complete-embed"],
)
def test_prec_is_not_an_option_of_levelless_commands(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--prec", "5")
    assert_usage_error(code, out, err)
    assert err == "parse error: unrecognized arguments: --prec 5\n"


@pytest.mark.parametrize(
    "argv",
    [["h1", "eq", "gf(1;0;1)", "gf(t;0;2)"], ["h1", "zero", "gf(1;0;1)"]],
    ids=["h1-eq", "h1-zero"],
)
def test_prec_outside_its_subcommands_is_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--prec", "5")
    assert_usage_error(code, out, err)
    assert err == f"parse error: --prec applies to h1 act, not {' '.join(argv[:2])}\n"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--help"])
    assert exc.value.code == 0
    assert "--prec" in capsys.readouterr().out


def test_config_file(tmp_path, capsys):
    conf = tmp_path / "five.conf"
    conf.write_text("field = fp:5\nprecision = 9\nexponents = 0,3,8\nunits = 1,2,4\n")
    code, out, _ = run_cli(
        capsys, "nf", "w^2", "--config", str(conf), "--output", "machine"
    )
    assert code == 0
    # w = 2t^4 here, so w^2 rewrites with x = -t^2 s^2 * 4, y = 2 t s * 2
    assert "level = 9" in out


def test_bad_config_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("volume = 11\n")
    code, _, err = run_cli(capsys, "nf", "w", "--config", str(conf))
    assert code == 2
    assert "unknown key" in err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "akizuki", "res", "pair(1;1+t)", "gf(t;1;2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "t^-2 + 2t^-1"


def test_cli_import_loads_no_dataclasses():
    """A fresh ``import akizuki.cli`` adds none of ``dataclasses`` and the
    modules it pulls in, which made up about half of each command's
    start-up time."""
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(akizuki.__file__).parents[1])!r})\n"
        "bare = set(sys.modules)\n"
        "import akizuki.cli\n"
        "print(*sorted(set(sys.modules) - bare))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "akizuki.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}


# Loaded by ``fractions``, which only the rational field needs.
FRACTIONS = {"fractions", "decimal", "numbers"}


def package_modules_added(*steps):
    """Run the steps in turn in one fresh interpreter; for each, the
    ``akizuki`` modules it adds to ``sys.modules``, and those of FRACTIONS."""
    probe = [
        "import contextlib, io, sys",
        f"sys.path.insert(0, {str(Path(akizuki.__file__).parents[1])!r})",
    ]
    for step in steps:
        probe += [
            "bare = set(sys.modules)",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    {step}",
            f"print(*sorted(m for m in set(sys.modules) - bare if m.split('.')[0] in {{'akizuki', *{sorted(FRACTIONS)}}}))",
        ]
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(probe)], capture_output=True, text=True, check=True
    )
    return [set(line.split()) for line in proc.stdout.splitlines()]


def test_package_import_loads_only_errors_and_a_ring_only_its_layers():
    bare, ring, rational = package_modules_added(
        "import akizuki",
        "akizuki.AkizukiRing(akizuki.PrimeField(101), 511)",
        "akizuki.RationalField()",
    )
    assert bare == {"akizuki", "akizuki.errors"}
    # an F_p ring loads no fractions, decimal or numbers; the first rational field does
    assert ring == {"akizuki.fields", "akizuki.ring", "akizuki.series", "akizuki.value"}
    assert rational == FRACTIONS


def test_only_the_selftest_command_loads_the_law_registry():
    cli, nf, selftest_cmd = package_modules_added(
        "import akizuki.cli",
        "akizuki.cli.main(['nf', 't'])",
        "akizuki.cli.main(['selftest', 'series', '--count', '1'])",
    )
    assert "akizuki.selftest" not in cli | nf
    # perfbench/spans.py finds these in sys.modules when it installs
    assert {"akizuki.duality", "akizuki.expressions", "akizuki.literals"} <= cli
    assert selftest_cmd == {"akizuki.selftest"}


# The module each public name comes from, written out apart from the
# package's own table so that a wrong entry there shows.
HOMES = {
    name: home
    for home, names in [
        ("cohomology", "CohomologyClass"),
        ("config", "RingSettings default_ring parse_field_spec"),
        ("duality", "CompletionElement ContinuousHom ResiduePair extract_pair"),
        ("errors", "AlgebraError ExactDivisionError InstanceError NotInvertibleError"
                   " ParseError PrecisionError"),
        ("expressions", "Atom BinOp Gen Neg Num Pow eval_nf parse_expression"),
        ("fields", "PrimeField RationalField"),
        ("literals", "parse_comp parse_gf parse_hom parse_pair parse_series parse_tail"),
        ("ring", "MINIMAL AkizukiRing NormalForm"),
        ("series", "LaurentTail TruncatedSeries"),
    ]
    for name in names.split()
}
# In dependency order, so that each is looked up before another imports it.
SUBMODULES = (
    "value", "series", "errors", "fields", "ring",
    "cohomology", "config", "duality", "expressions", "literals",
)


def test_lazy_namespace_keeps_every_name_and_submodule():
    """After a plain ``import akizuki`` in a fresh interpreter, each
    submodule resolves as an attribute, and every public name is the object
    of its home module (so a table entry naming a module without that name
    fails here) and is cached in the package once resolved."""
    probe = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(Path(akizuki.__file__).parents[1])!r})\n"
        "import akizuki\n"
        "listed = dir(akizuki)\n"
        "submodules = [name for name in " + repr(SUBMODULES) + "\n"
        "              if getattr(akizuki, name) is sys.modules['akizuki.' + name]]\n"
        "star = {}\n"
        "exec('from akizuki import *', star)\n"
        "try:\n"
        "    akizuki.nope\n"
        "except AttributeError as exc:\n"
        "    nope = str(exc)\n"
        f"homes = {HOMES!r}\n"
        "print(json.dumps({\n"
        "    'all': sorted(akizuki.__all__),\n"
        "    'version': akizuki.__version__,\n"
        "    'misplaced': [name for name, home in homes.items() if getattr(akizuki, name)\n"
        "                  is not getattr(importlib.import_module('akizuki.' + home), name)],\n"
        "    'submodules': submodules,\n"
        "    'uncached': sorted(set(akizuki.__all__) - set(vars(akizuki))),\n"
        "    'dir_missing': sorted(set(akizuki.__all__) - set(listed)),\n"
        "    'star': sorted(name for name, value in star.items()\n"
        "                   if name != '__builtins__' and value is getattr(akizuki, name)),\n"
        "    'nope': nope,\n"
        "}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["all"] == sorted(HOMES)
    assert report["version"] == akizuki.__version__
    assert report["misplaced"] == []
    assert report["submodules"] == list(SUBMODULES)
    assert report["uncached"] == []
    assert report["dir_missing"] == []
    assert report["star"] == sorted(HOMES)
    assert report["nope"] == "module 'akizuki' has no attribute 'nope'"


def test_cli_suite_choices_follow_the_registry():
    from akizuki import cli, selftest

    assert cli.SUITE_NAMES == selftest.SUITE_NAMES


def test_selftest_command_in_a_fresh_interpreter():
    def akizuki_cmd(*argv):
        return subprocess.run(
            [sys.executable, "-m", "akizuki", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(akizuki.__file__).parents[1])},
        )

    bad = akizuki_cmd("selftest", "nope")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == (
        "parse error: argument suite: invalid choice: 'nope' (choose from 'series', 'ring',"
        " 'cohomology', 'duality', 'completion', 'all')\n"
    )
    good = akizuki_cmd("selftest", "series", "--count", "1")
    assert (good.returncode, good.stderr) == (0, "")
    assert good.stdout.splitlines()[-1] == "selftest series: ok"


# ----------------------------------------------------------------------
# robustness: usage and parse errors exit 2 with one line of stderr


def test_nf_large_power_golden(capsys):
    code, out, _ = run_cli(capsys, "nf", "(1+w)^200000", "--prec", "8")
    assert code == 0
    assert out.strip() == (
        "(1 - 19999900000t^6) + (200000 + 39999800000t^3 + 3999940000200000t^6"
        " + 39999800000t^7)*w mod t^8"
    )


@pytest.mark.parametrize("target", ["missing", "directory", "binary"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, target):
    path = tmp_path if target == "directory" else tmp_path / f"{target}.conf"
    if target == "binary":
        path.write_bytes(b"precision = \xff\xfe\n")
    code, out, err = run_cli(capsys, "nf", "w", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parse error: cannot read config file")


BIG = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("nf", f"t + {BIG}"),
        ("res", f"pair(1;{BIG})", "gf(1;0;1)"),
        ("res", "pair(1;1)", f"gf({BIG}*t;0;2)"),
        ("res", "pair(1;1)", f"gf(1;0;{BIG})"),
        ("duality", "inverse", f"pair(0;1/{BIG})", "hom(1;1;0)"),
        ("res", f"pair(1;{BIG})", "gf(1;0;1)", "--field", "fp:101"),
    ],
    ids=["expression", "series", "gf-coefficient", "gf-level", "fraction", "fp-series"],
)
def test_overlong_integer_is_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "5000 digits" in err


@pytest.mark.parametrize("source", ["option", "config"])
def test_overlong_field_prime_is_parse_error(tmp_path, capsys, source):
    conf = tmp_path / "big.cfg"
    conf.write_text(f"field = fp:{BIG}\n")
    argv = ("--field", f"fp:{BIG}") if source == "option" else ("--config", str(conf))
    code, out, err = run_cli(capsys, "nf", "t", *argv)
    assert (code, out, err) == (2, "", "parse error: integer with 5000 digits is too long\n")


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "w" + ")" * 3000, "0 + " + "-" * 3000 + "w"],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_is_parse_error(capsys, expr):
    code, out, err = run_cli(capsys, "nf", expr)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "nested deeper" in err


def test_sixty_bit_prime_field_is_fast():
    # a trial-division prime test took minutes on this p
    proc = subprocess.run(
        [sys.executable, "-m", "akizuki", "nf", "(1+w)^3", "--field",
         "fp:1000000000000000003", "--prec", "4", "--output", "machine"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["X = 1", "Y = 3 + 6t^3", "level = 4"]


def test_prime_past_the_exact_range_is_parse_error(capsys):
    code, out, err = run_cli(capsys, "nf", "1", "--field", "fp:" + "9" * 30)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "too large" in err


def test_config_precision_past_the_cap_is_parse_error(tmp_path, capsys):
    conf = tmp_path / "huge.conf"
    conf.write_text("precision = 1000000000\n")
    code, out, err = run_cli(capsys, "nf", "w", "--config", str(conf))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "exceeds the maximum" in err


def test_overlong_coefficient_is_one_line_error(capsys):
    code, out, err = run_cli(capsys, "nf", "2^20000")
    assert code == 1
    assert out == ""
    assert err == "error: a coefficient with 6021 digits is too long to print\n"


def test_digit_count_of_a_huge_coefficient_is_bounded_work():
    # the exact count needs 10^(d-1): 10 s for 2^30000000
    start = time.perf_counter()
    with pytest.raises(FormatError, match="^a coefficient with more than 9030899 digits "):
        RationalField().fmt(Fraction(2**30000000, 3))
    with pytest.raises(FormatError, match="^a coefficient with 4301 digits "):
        RationalField().fmt(Fraction(1, 10**4300))
    assert time.perf_counter() - start < 2


def test_overlong_coefficient_prints_nothing_in_machine_mode(capsys):
    code, out, err = run_cli(capsys, "nf", "t + 2^20000*t*w", "--output", "machine")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1


def test_huge_power_is_one_line_error_within_seconds():
    # 2^30000000 used to be built, then spent 10 s counting its digits
    proc = subprocess.run(
        [sys.executable, "-m", "akizuki", "nf", "2^30000000", "--prec", "2"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: a power has a coefficient of more than 65536 bits\n"
