"""End-to-end command-line behavior: goldens, exit codes, determinism."""

import subprocess
import sys

import pytest

from akizuki.cli import main


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
    assert out.strip() == "comp(1 + t^3 + t^7 + t^15;0)"


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


# ----------------------------------------------------------------------
# extraction, selftest, config plumbing


def test_extract(capsys):
    code, out, _ = run_cli(capsys, "extract", "pair(1;1+t)", "--prec", "5")
    assert code == 0
    assert out.strip() == "pair(1;1 + t)"


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


def test_selftest_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


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
