"""Command-line interface: parsing, batteries, exit codes, determinism."""

import gc
import hashlib
import io
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import weakref

import numpy as np
import pytest

from contactkit import cli as cli_module
from contactkit.charts import Chart
from contactkit.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILURE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_TORIC,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    _VALUE_OPTIONS,
    _emit_record,
    main,
    model_battery,
    parse_config_file,
    parse_one_form,
)
from contactkit.contact import GeometricError
from contactkit.models import build_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.seed == 20110615
        assert config.samples == 128
        assert config.output == "text"
        assert config.overrides is None

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            RunConfig(samples=0)
        with pytest.raises(ValueError, match="output"):
            RunConfig(output="xml")
        with pytest.raises(ValueError, match="unknown tolerance"):
            RunConfig(tolerances={"nope": 1e-9})
        with pytest.raises(ValueError, match="positive"):
            RunConfig(tolerances={"flow_identity": -1e-9})
        with pytest.raises(ValueError, match="finite"):
            RunConfig(tolerances={"flow_identity": float("inf")})
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-1)

    def test_overrides_passthrough(self):
        config = RunConfig(tolerances={"flow_identity": 1e-6})
        assert config.overrides == {"flow_identity": 1e-6}


class TestOneFormParsing:
    @pytest.fixture
    def chart(self):
        return Chart("cli", ("x", "y", "z"))

    def test_standard_form(self, chart):
        eta = parse_one_form(chart, "dz - y*dx")
        assert str(eta.coefficient((2,))) == "1"
        assert str(eta.coefficient((0,))) == "-y"

    def test_unicode_minus_and_spaces(self, chart):
        eta = parse_one_form(chart, "dz − y * dx")
        assert str(eta.coefficient((0,))) == "-y"

    def test_bare_differential_and_leading_sign(self, chart):
        eta = parse_one_form(chart, "-dz")
        assert str(eta.coefficient((2,))) == "-1"

    def test_repeated_differentials_accumulate(self, chart):
        eta = parse_one_form(chart, "2*dx + dx")
        assert eta.coefficient((0,)).constant_value() == pytest.approx(3.0)

    def test_parenthesized_coefficient(self, chart):
        eta = parse_one_form(chart, "(x + y)*dz")
        values = eta.coefficient((2,)).values([[1.0, 2.0, 0.0]])
        assert values[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "source",
        ["", "y*dx + 3", "dw", "y*", "(y*dx", "x", "dx*dy", "sin(dx)", "dx/dy"],
    )
    def test_rejects_malformed(self, chart, source):
        with pytest.raises(UsageError):
            parse_one_form(chart, source)

    @pytest.mark.parametrize(
        "source, slot, value",
        [
            ("dz - 1e-5*y*dx", 0, -2e-5),
            ("1.5e+2*dx + dz", 0, 150.0),
            ("dz - 2E3*dy", 1, -2000.0),
        ],
    )
    def test_scientific_notation_coefficients(self, chart, source, slot, value):
        # an exponent sign is part of the number, not a term separator
        eta = parse_one_form(chart, source)
        assert eta.coefficient((2,)).constant_value() == 1.0
        assert eta.coefficient((slot,)).values([[1.0, 2.0, 0.0]])[0] == pytest.approx(value)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n\nseed = 11\nsamples = 64\nformat = records\ntol.level_set = 1e-11\n"
        )
        values = parse_config_file(str(path))
        assert values["seed"] == 11
        assert values["samples"] == 64
        assert values["format"] == "records"
        assert values["tolerances"] == {"level_set": 1e-11}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("colour = blue\n")
        with pytest.raises(UsageError, match="unknown config key"):
            parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = eleven\n")
        with pytest.raises(UsageError, match="bad value"):
            parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config_file("/nonexistent/run.cfg")

    def test_flags_win_over_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("samples = 64\nformat = records\n")
        code, out, _ = run_cli(
            capsys, "ypq", "3", "1", "--config", str(path), "--format", "text", "--samples", "32"
        )
        assert code == EXIT_OK
        # text format from the flag, 32 samples from the flag
        assert "samples 32" in out
        assert not out.lstrip().startswith("{")

    def test_config_applies_when_no_flags(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("samples = 64\nformat = records\n")
        code, out, _ = run_cli(capsys, "ypq", "3", "1", "--config", str(path))
        assert code == EXIT_OK
        first = json.loads(out.splitlines()[0])
        assert first["kind"] == "ypq_report"
        checks = [json.loads(line) for line in out.splitlines()[1:]]
        sampled = [r for r in checks if r["name"] == "circle_pairing_vanishes"]
        assert sampled and all(record["samples"] == 64 for record in sampled)


class TestBracketCommand:
    def test_golden_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "x,y,z", "dz − y*dx", "−y", "z", "1,2,3"
        )
        assert code == EXIT_OK
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value) < 1e-12
        assert "defining_residuals[f]" in out
        assert "defining_residuals[g]" in out

    def test_readme_example_with_ascii_minus(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "x,y,z", "dz - y*dx", "-y", "z", "1,2,3")
        assert code == EXIT_OK
        value = float(out.splitlines()[0].split("=")[1])
        assert abs(value) < 1e-12

    def test_negative_point_with_options_on_both_sides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bracket",
            "--seed",
            "5",
            "x,y,z",
            "dz - y*dx",
            "1",
            "-z",
            "-1,-2,3",
            "--format=records",
        )
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[0])
        assert record["point"] == [-1.0, -2.0, 3.0]
        assert record["g"] == "-z"
        assert record["value"] == pytest.approx(-1.0)

    def test_operand_reordering_knows_every_option(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--help")
        assert code == EXIT_OK
        shown = set(re.findall(r"\[(--[a-z-]+)", out))
        assert shown == set(_VALUE_OPTIONS)

    def test_unit_powers_at_origin_are_finite(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "x,y,z", "dz - y^1*dx", "x^0", "z", "0,0,0")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "{f, g}(0, 0, 0) = 1"
        assert "nan" not in out

    def test_golden_one(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "x,y,z", "dz - y*dx", "1", "z", "1,2,3")
        assert code == EXIT_OK
        assert out.splitlines()[0].endswith("= 1")

    def test_anisotropically_small_form_is_solved(self, capsys):
        # dz - 1e-12 y dx is contact (x' = 1e-12 x maps it to dz - y dx'),
        # and its Hadamard ratio is about 0.45, so it is solved at any scale.
        code, out, _ = run_cli(capsys, "bracket", "x,y,z", "dz - 1e-12*y*dx", "x", "y", "1,2,3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "{f, g}(1, 2, 3) = 1e+12"

    def test_scientific_notation_in_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "x,y,z", "dz - 1e-5*y*dx", "x", "y", "0.1,0.2,0.3"
        )
        assert code == EXIT_OK
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1e5, rel=1e-9)

    def test_degenerate_form_exits_geometry(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "x,y,z", "dz", "1", "z", "1,2,3")
        assert code == EXIT_GEOMETRY
        assert "contact condition fails" in out

    def test_degenerate_form_is_an_error_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "x,y,z", "x*dx", "x", "y", "1,2,3", "--format", "records"
        )
        assert code == EXIT_GEOMETRY
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["kind"] == "error"
        assert records[-1]["message"].startswith("contact condition fails: ")

    def test_records_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bracket", "x,y,z", "dz - y*dx", "1", "z", "1,2,3", "--format", "records"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["kind"] == "bracket"
        assert records[0]["value"] == pytest.approx(1.0)
        assert {r["function"] for r in records[1:]} == {"f", "g"}

    @pytest.mark.parametrize(
        "f, g, point, message",
        [
            ("sqrt(x)", "z", "-1,2,3", "f is undefined at (-1, 2, 3): sqrt of negative value"),
            ("x^-1", "z", "0,2,3", "f is undefined at (0, 2, 3): zero raised to a negative power"),
            ("z", "1/y", "1,0,3", "g is undefined at (1, 0, 3): division by zero"),
        ],
    )
    def test_function_undefined_at_point_exits_usage(self, capsys, f, g, point, message):
        code, out, err = run_cli(capsys, "bracket", "x,y,z", "dz - y*dx", f, g, point)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_form_undefined_at_point_exits_usage(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "x,y,z", "dz - sqrt(x)*dx", "1", "z", "-1,2,3")
        assert code == EXIT_USAGE
        assert "eta is undefined at (-1, 2, 3): sqrt of negative value" in err

    def test_form_overflowing_at_point_exits_usage(self):
        # eta's value overflows to -inf at y = 1e200; the SVD of a matrix
        # holding inf never returns, so this once ran until killed.
        argv = ["bracket", "x,y,z", "dz - y^2*dx", "x", "y", "0.1,1e200,0.3"]
        proc = subprocess.run(
            [sys.executable, "-m", "contactkit.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert "error: eta is undefined at (0.1, 1e+200, 0.3): " in proc.stderr
        assert "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_form_overflowing_at_point_exits_before_the_solve(self, capsys, monkeypatch):
        # the finiteness guard on eta runs before the batched inverse
        calls = []
        inv = np.linalg.inv

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return inv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting)
        code, out, err = run_cli(
            capsys, "bracket", "x,y,z", "dz - y^2*dx", "x", "y", "0.1,1e200,0.3"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: eta is undefined at (0.1, 1e+200, 0.3): " in err
        assert "not finite" in err
        assert calls == []

    def test_overflow_prints_one_error_line(self):
        # numpy's overflow warnings, with their internal source lines, used
        # to reach stderr before the error line.
        argv = ["bracket", "x,y,z", "dz - y^2*dx", "x", "y", "0.1,1e200,0.3"]
        proc = subprocess.run(
            [sys.executable, "-m", "contactkit.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("output", ["text", "records"])
    def test_non_finite_bracket_exits_usage(self, capsys, output):
        code, out, err = run_cli(
            capsys, "bracket", "x,y,z", "dz - y*dx", "1e300*x", "1e300*y", "0.1,0.2,0.3",
            "--format", output,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "{f, g} is not finite at (0.1, 0.2, 0.3)" in err
        assert "nan" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bracket", "x,y,z", "dz - y*dx", "(y", "z", "1,2,3"),
            ("bracket", "x,y,z", "dz - y*dx", "y", "z", "1,2"),
            ("bracket", "x,y,z", "dz - y*dx", "y", "z", "1,2,three"),
            ("bracket", "x,x,z", "dz - y*dx", "y", "z", "1,2,3"),
            ("bracket", "x,y,z", "y*dx + 3", "y", "z", "1,2,3"),
            ("bracket", "x,dy,z", "dz", "1", "1", "1,2,3"),
        ],
    )
    def test_parse_errors_exit_usage(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "eta, f, message",
        [
            ("dz - y*dx", "x*²", "bad f expression 'x*²': unexpected character '²' at offset 2"),
            ("dz - y*dx", "x^²", "bad f expression 'x^²': unexpected character '²' at offset 2"),
            ("dz - ²*y*dx", "x", "bad 1-form 'dz - ²*y*dx': unexpected character '²'"),
        ],
    )
    def test_superscript_digit_exits_usage(self, capsys, eta, f, message):
        # '²'.isdigit() holds but float() and int() reject it
        code, out, err = run_cli(capsys, "bracket", "x,y,z", eta, f, "z", "1,2,3")
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_even_dimensional_chart_exits_usage(self, capsys):
        code, out, err = run_cli(capsys, "bracket", "x,y", "dy - x*dx", "x", "y", "1,2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: bad chart argument 'x,y': contact chart must be odd-dimensional, got dim 2\n"
        )

    def test_sum_deeper_than_the_recursion_limit(self, capsys):
        f = " + ".join(f"{i}*x" for i in range(1, 1500))
        code, out, err = run_cli(capsys, "bracket", "x,y,z", "dz - y*dx", f, "z", "1,2,3")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("{f, g}(1, 2, 3) = 1124250\n")

    def test_records_print_a_sum_deeper_than_the_recursion_limit(self, capsys):
        f = " + ".join(f"{i}*x" for i in range(1, 1500))
        code, out, err = run_cli(
            capsys, "bracket", "x,y,z", "dz - y*dx", f, "z", "1,2,3", "--format", "records"
        )
        assert (code, err) == (EXIT_OK, "")
        record = json.loads(out.splitlines()[0])
        assert record["f"] == f
        assert record["value"] == 1124250


class TestClosedPipe:
    def test_closed_reader_is_not_a_check_failure(self):
        argv = ["verify", "darboux(1)", "--format", "records"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "contactkit.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader goes away before the first line
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
        assert err == b""

    def test_in_process_string_stream_unchanged(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["verify", "darboux(1)", "--samples", "16"]) == EXIT_OK
        assert stream.getvalue().startswith("model darboux(1)\n")
        assert stream.getvalue().endswith(" 0 failed\n")


class TestVerifyCommand:
    def test_example_dossier_literal_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "example_3_10")
        assert code == EXIT_OK
        assert "isotropy_defect(1,2,3) = 2" in out.splitlines()
        assert "summary: " in out

    def test_unknown_model_exits_usage(self, capsys):
        # Like every other usage error: one line on stderr, nothing on stdout.
        code, out, err = run_cli(capsys, "verify", "nope")
        assert (code, out) == (EXIT_USAGE, "")
        assert "unknown model" in err
        code, out, err = run_cli(capsys, "verify", "darboux(1)", "darboux(0)")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: darboux(n) needs n >= 1\n"

    def test_checks_sorted_by_label(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "darboux(1)", "--samples", "32")
        assert code == EXIT_OK
        labels = [line.split()[1] for line in out.splitlines() if line.startswith("  PASS")]
        assert labels == sorted(labels)
        assert len(labels) > 8

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "verify", "darboux(1)", "--samples", "64", "--seed", "7")
        second = run_cli(capsys, "verify", "darboux(1)", "--samples", "64", "--seed", "7")
        assert first == second
        third = run_cli(capsys, "verify", "darboux(1)", "--samples", "64", "--seed", "8")
        assert first != third

    def test_records_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "example_3_10", "--format", "records", "--samples", "32"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        kinds = {record["kind"] for record in records}
        assert kinds == {"check", "note", "summary"}
        summary = records[-1]
        checks = [r for r in records if r["kind"] == "check"]
        assert summary["checks"] == len(checks)
        assert summary["failed"] == 0
        assert all(r["passed"] for r in checks)
        notes = [r["text"] for r in records if r["kind"] == "note"]
        assert notes == ["isotropy_defect(1,2,3) = 2"]

    def test_tightened_tolerance_fails(self, capsys):
        # scale_covariance has a genuinely nonzero rounding residual, so an
        # absurdly tight override must flip it to FAIL and the exit code to 1.
        code, out, _ = run_cli(
            capsys,
            "verify",
            "darboux(1)",
            "--samples",
            "32",
            "--tol",
            "scale_covariance=1e-300",
        )
        assert code == EXIT_CHECK_FAILURE
        assert "FAIL" in out

    # The expected facts resolve their tolerances through the overrides too,
    # not only the cone-side checks.  The default tolerances are 1e-9 and a
    # 1e-10 ratio floor, so both runs below pass without the override.
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tolerance_override_reaches_the_model_facts(self, capsys, tmp_path, source):
        if source == "flag":
            options = ["--tol", "reeb_defining=1e-30"]
        else:
            path = tmp_path / "run.cfg"
            path.write_text("tol.reeb_defining = 1e-30\n")
            options = ["--config", str(path)]
        code, out, _ = run_cli(capsys, "verify", "example_3_10", "--samples", "32", *options)
        assert code == EXIT_CHECK_FAILURE
        line = next(line for line in out.splitlines() if " reeb_defining " in line)
        assert line.startswith("  FAIL  reeb_defining ")
        assert line.endswith("tol 1.000000e-30  samples 32")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["verify", "darboux(1)", "--seed", "-1"], None),
            (["ypq", "3", "1", "--seed", "-5"], None),
            (["verify", "darboux(1)"], "seed = -3\n"),
        ],
    )
    def test_negative_seed_exits_usage(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: seed must be non-negative") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "options, config",
        [
            (["--tol", "reeb_defining=inf"], None),
            (["--tol", "reeb_defining=inf", "--format", "records"], None),
            ([], "tol.reeb_defining = inf\n"),
            (["--format", "records"], "tol.reeb_defining = inf\n"),
        ],
    )
    def test_non_finite_tolerance_exits_usage(self, capsys, tmp_path, options, config):
        # An infinite tolerance would make a check that can never fail.
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            options = [*options, "--config", str(path)]
        code, out, err = run_cli(capsys, "verify", "darboux(1)", "--samples", "16", *options)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: tolerance reeb_defining must be positive and finite")
        assert err.count("\n") == 1

    def test_determinant_threshold_override_fails_the_contact_condition(self, capsys):
        # The Hadamard ratio lies in [0, 1], so a threshold of 2 fails everywhere.
        code, out, _ = run_cli(
            capsys, "verify", "example_3_10", "--samples", "32",
            "--tol", "contact_determinant=2", "--format", "records",
        )
        assert code == EXIT_CHECK_FAILURE
        records = [json.loads(line) for line in out.splitlines()]
        (check,) = [r for r in records if r.get("name") == "contact_condition"]
        assert check["passed"] is False
        assert check["detail"]["determinant_ratio_threshold"] == 2.0
        ratio = check["detail"]["min_determinant_ratio"]
        assert check["max_residual"] == pytest.approx(2.0 - ratio)
        code, out, _ = run_cli(
            capsys, "verify", "example_3_10", "--samples", "32", "--tol", "contact_determinant=2"
        )
        assert code == EXIT_CHECK_FAILURE
        assert any(line.startswith("  FAIL  contact_condition ") for line in out.splitlines())

    def test_all_expands_and_dedupes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "darboux(1)", "all", "--samples", "8", "--seed", "3"
        )
        assert code == EXIT_OK
        headers = [line for line in out.splitlines() if line.startswith("model ")]
        assert headers[0] == "model darboux(1)"
        assert len(headers) == len(set(headers)) == 9

    # sha256 prefixes of the output (numpy 2.4 with OpenBLAS 0.3.31 on
    # x86-64; another LAPACK may move the last digits of a residual).  A
    # change to the linear algebra re-pins them only after a diff against
    # its parent shows the same labels, verdicts and exit codes.
    GOLDENS = [
        (128, 20110615, "text", "93d65ced46aed4f1"),
        (128, 20110615, "records", "a94d52a7b24d48a4"),
        (128, 1, "text", "f8377775b13a3b0b"),
        (128, 1, "records", "d77af570f332781b"),
        (128, 205, "text", "70332c1ff13d8f6d"),
        (128, 205, "records", "2efedb3b72e257f2"),
        (4096, 20110615, "text", "38f1a90bfa7099a3"),
    ]

    @pytest.mark.parametrize(
        "samples, seed, output, digest",
        GOLDENS,
        ids=[f"{samples}-{seed}-{output}" for samples, seed, output, _ in GOLDENS],
    )
    def test_verify_all_golden(self, capsys, samples, seed, output, digest):
        code, out, err = run_cli(
            capsys, "verify", "all", "--samples", str(samples), "--seed", str(seed),
            "--format", output,
        )
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_nothing_kept_across_commands(self, monkeypatch, capsys):
        from contactkit import cone as cone_module

        counts = {"draws": 0, "preconditions": 0}
        sampled, rate = Chart._sampled, cone_module.reeb_rate

        def counting_sampled(self, count, seed):
            counts["draws"] += 1
            return sampled(self, count, seed)

        def counting_rate(system, hamiltonian):
            counts["preconditions"] += 1
            return rate(system, hamiltonian)

        monkeypatch.setattr(Chart, "_sampled", counting_sampled)
        monkeypatch.setattr(cone_module, "reeb_rate", counting_rate)
        # The counters see this process only, so every battery runs here.
        monkeypatch.setattr(cli_module, "_worker_count", lambda models: 1)
        seen = []
        for _ in range(2):
            last = run_cli(capsys, "verify", "all", "--samples", "16")
            seen.append(dict(counts))
            counts.update(draws=0, preconditions=0)
        assert seen[0] == seen[1]
        # one draw per distinct (chart, count, seed), one precondition per
        # distinct (cone, pair, samples, seed): far fewer than the calls
        assert 0 < seen[0]["draws"] < 40
        assert 0 < seen[0]["preconditions"] < 40
        assert run_cli(capsys, "verify", "all", "--samples", "16") == last

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "darboux(1)", "--tol", "flow_identity"),
            ("verify", "darboux(1)", "--tol", "nope=1e-9"),
            ("verify", "darboux(1)", "--samples", "0"),
        ],
    )
    def test_bad_flags_exit_usage(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert "error" in err


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestParallelVerify:
    """``verify`` runs its batteries in ``_worker_count`` processes; the output
    must not depend on how many."""

    @pytest.fixture
    def workers(self, monkeypatch):
        def force(count):
            monkeypatch.setattr(cli_module, "_worker_count", lambda models: min(count, models))

        return force

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all", "--samples", "16", "--seed", "1"),
            ("verify", "all", "--samples", "16", "--seed", "205", "--format", "records"),
            ("verify", "example_3_10", "darboux(2)", "all", "darboux(2)", "--samples", "16"),
            ("verify", "example_3_10", "--samples", "16", "--format", "records"),
            ("verify", "darboux(1)", "--samples", "16", "--tol", "scale_covariance=1e-300"),
        ],
    )
    def test_output_does_not_depend_on_the_worker_count(self, capsys, workers, argv):
        runs = []
        for count in (1, 2, 3):
            workers(count)
            runs.append(run_cli(capsys, *argv))
            assert _no_child_left()
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] in (EXIT_OK, EXIT_CHECK_FAILURE) and runs[0][2] == ""

    def test_duplicate_keys_run_once(self, capsys, workers):
        workers(3)
        code, out, _ = run_cli(
            capsys, "verify", "darboux(1)", "darboux(1)", "example_3_10", "--samples", "16"
        )
        assert code == EXIT_OK
        headers = [line for line in out.splitlines() if line.startswith("model ")]
        assert headers == ["model darboux(1)", "model example_3_10"]

    def test_keys_that_normalize_alike_run_once(self, capsys):
        once = run_cli(capsys, "verify", "darboux(1)", "--samples", "16")
        code, out, err = run_cli(
            capsys, "verify", "darboux(1)", "darboux( 1 )", "--samples", "16"
        )
        assert (code, out, err) == once
        assert out.count("model darboux(1)\n") == 1

    TARGET = "heisenberg(1)"  # on the task pipe: the parent runs darboux(2)
    KEYS = ("darboux(1)", TARGET, "darboux(2)")

    @pytest.mark.parametrize("count", [2, 3])
    def test_error_in_a_child_matches_the_serial_run(
        self, capsys, workers, monkeypatch, count
    ):
        battery = cli_module.model_battery
        raised = []

        def failing(model, config):
            if model.key == self.TARGET:
                raised.append(os.getpid())
                raise GeometricError("precondition fails on the sampled chart")
            return battery(model, config)

        monkeypatch.setattr(cli_module, "model_battery", failing)
        workers(1)
        serial = run_cli(capsys, "verify", *self.KEYS, "--samples", "16")
        code, out, err = serial
        assert (code, err) == (EXIT_GEOMETRY, "")
        assert out.startswith("model darboux(1)\n")
        assert out.endswith("\nerror: precondition fails on the sampled chart\n")
        assert "model " + self.TARGET not in out and "darboux(2)" not in out
        raised.clear()
        workers(count)
        assert run_cli(capsys, "verify", *self.KEYS, "--samples", "16") == serial
        assert _no_child_left()
        # A child raised first; this process raised once, running it again.
        assert raised == [os.getpid()]

    @pytest.mark.parametrize("count", [2, 3])
    def test_parent_runs_only_the_largest_chart(self, capsys, workers, monkeypatch, count):
        # The largest chart takes the most memory, so the parent's peak is
        # the serial pass's, and the same in every run.
        parent, battery = os.getpid(), cli_module.model_battery
        ran = []

        def recorded(model, config):
            if os.getpid() == parent:
                ran.append(model.key)
            return battery(model, config)

        monkeypatch.setattr(cli_module, "model_battery", recorded)
        workers(count)
        assert run_cli(capsys, "verify", "all", "--samples", "16")[0] == EXIT_OK
        assert ran == ["sphere_weighted(3,2,4,3,3)"]
        ran.clear()
        assert run_cli(capsys, "verify", *self.KEYS, "--samples", "16")[0] == EXIT_OK
        assert ran == ["darboux(2)"]
        assert _no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_systems_freed_after_their_battery(self, workers, monkeypatch, count):
        # A system keeps its sampled points and solved arrays; the largest
        # chart's would otherwise add to a later battery's peak memory.  The
        # cyclic collector is off, so nothing waits for it.
        systems = []

        def built(key):
            model = build_model(key)
            systems.append(weakref.ref(model.system))
            return model

        monkeypatch.setattr(cli_module, "build_model", built)
        workers(count)
        # example_3_10's battery and report build isotropy-defect evaluators
        keys = ("darboux(1)", "heisenberg(1)", "example_3_10")
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert cli_module.cmd_verify(keys, RunConfig(samples=16), io.StringIO()) == EXIT_OK
            assert len(systems) == 3 and all(ref() is None for ref in systems)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("count", [2, 3])
    def test_models_of_a_dead_child_are_finished_by_the_parent(
        self, capsys, workers, monkeypatch, count
    ):
        workers(1)
        serial = run_cli(capsys, "verify", *self.KEYS, "--samples", "16")
        assert serial[0] == EXIT_OK
        parent, battery = os.getpid(), cli_module.model_battery

        def dying(model, config):
            if os.getpid() != parent:
                os._exit(1)  # dies holding its task, without writing anything
            return battery(model, config)

        monkeypatch.setattr(cli_module, "model_battery", dying)
        workers(count)
        assert run_cli(capsys, "verify", *self.KEYS, "--samples", "16") == serial
        assert _no_child_left()

    def test_children_are_reaped_on_every_exit_path(self, workers, monkeypatch):
        workers(2)
        config = RunConfig(samples=16)
        keys = ("darboux(1)", "heisenberg(1)", "example_3_10")
        stream = io.StringIO()
        assert cli_module.cmd_verify(keys, config, stream) == EXIT_OK
        assert _no_child_left()

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        with pytest.raises(BrokenPipeError):
            cli_module.cmd_verify(keys, config, ClosedPipe())
        assert _no_child_left()

        parent, battery = os.getpid(), cli_module.model_battery

        def interrupted(model, config):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return battery(model, config)

        monkeypatch.setattr(cli_module, "model_battery", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_module.cmd_verify(keys, config, io.StringIO())
        assert _no_child_left()

        def geometric(model, config):
            raise GeometricError("no contact structure")

        monkeypatch.setattr(cli_module, "model_battery", geometric)
        with pytest.raises(GeometricError):
            cli_module.cmd_verify(keys, config, io.StringIO())
        assert _no_child_left()

    def test_children_reaped_by_the_kernel(self, capsys, workers):
        # A process that ignores SIGCHLD has its children reaped for it, and
        # waitpid then finds no child.
        argv = ("verify", "darboux(1)", "example_3_10", "--samples", "16")
        workers(2)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            parallel = run_cli(capsys, *argv)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        workers(1)
        assert parallel == run_cli(capsys, *argv)
        assert parallel[0] == EXIT_OK

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert cli_module._worker_count(1) == 1
        # The parent and one child per CPU, or one process on one CPU.
        assert cli_module._worker_count(9) == (min(cpus + 1, 9) if cpus > 1 else 1)
        # A task list longer than one atomic pipe write runs in one process.
        assert cli_module._worker_count(cli_module._MAX_PIPED_MODELS + 1) == 1

    def test_receive_keeps_whole_outcomes_of_a_cut_stream(self):
        # A child that dies while writing leaves a pickle cut short at any byte.
        model = build_model("example_3_10")
        outcome = cli_module.model_battery(model, RunConfig(samples=16)), model.report_lines()
        first = pickle.dumps((0, outcome), pickle.HIGHEST_PROTOCOL)
        data = first + pickle.dumps((1, outcome), pickle.HIGHEST_PROTOCOL)
        for cut in range(len(data)):
            outcomes = [None, None]
            cli_module._receive(io.BytesIO(data[:cut]), outcomes)
            assert outcomes == [outcome if cut >= len(first) else None, None]
        outcomes = [None, None]
        cli_module._receive(io.BytesIO(data), outcomes)
        assert outcomes == [outcome, outcome]


class TestYpqCommand:
    def test_dossier_goldens(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "3", "1")
        assert code == EXIT_OK
        assert out.startswith("Y^(3,1)")
        assert "(2, 4, -3, -3)" in out
        assert "index 2, ramification 3" in out
        assert "(1, 2)" in out
        assert "(3, 2)" in out
        assert "3/4" in out

    def test_not_free_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "4", "2")
        assert code == EXIT_TORIC
        assert out == "action not free: stabilizer order 2\n"

    def test_invalid_parameters_exit_toric(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "2", "3")
        assert code == EXIT_TORIC
        assert "1 <= q < p" in out

    def test_huge_prime_exits_toric_instead_of_hanging(self):
        # Trial-dividing p = 10^18 + 3 up to its square root would take minutes.
        proc = subprocess.run(
            [sys.executable, "-m", "contactkit.cli", "ypq", "1000000000000000003", "1"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == EXIT_TORIC
        assert proc.stdout.splitlines() == [
            "error: totient(1000000000000000003) is refused: trial division is limited "
            "to arguments up to 10000000000000"
        ]
        assert "Traceback" not in proc.stderr

    def test_large_prime_still_reports_its_class_size(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "1000000000039", "1", "--format", "records")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[0])["class_size"] == 1000000000038

    def test_even_p_has_no_homogeneous_check(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "4", "1")
        assert code == EXIT_OK
        assert "homogeneous_coordinates" not in out
        code, out, _ = run_cli(capsys, "ypq", "5", "2")
        assert code == EXIT_OK
        assert "homogeneous_coordinates" in out

    def test_enumerate_table(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", "6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 5
        sizes = [int(line.split("class size")[1].split()[0]) for line in lines]
        assert sizes == [1, 2, 2, 4, 2]

    def test_enumerate_deterministic(self, capsys):
        first = run_cli(capsys, "ypq", "--enumerate", "12")
        second = run_cli(capsys, "ypq", "--enumerate", "12")
        assert first == second

    def test_enumerate_records(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", "6", "--format", "records")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["p"] for r in records] == [2, 3, 4, 5, 6]
        assert records[4]["members"] == [[6, 1], [6, 5]]
        assert all(r["class_size"] == len(r["members"]) for r in records)

    @staticmethod
    def _gcd_classes(p_max):
        return {
            p: [q for q in range(1, p) if math.gcd(p, q) == 1] for p in range(2, p_max + 1)
        }

    @staticmethod
    def _digest(out):
        return hashlib.sha256(out.encode()).hexdigest()[:16]

    # The P = 1000 digests are those of the output when each member's full
    # dossier was still built during enumeration.
    @pytest.mark.parametrize(
        "p_max, digest", [(50, None), (400, None), (1000, "b01df615c79d40d1")]
    )
    def test_enumerate_text_matches_gcd_table(self, capsys, p_max, digest):
        classes = self._gcd_classes(p_max)
        width = len(str(p_max))
        size_width = max(len(str(len(qs))) for qs in classes.values())
        expected = "".join(
            f"p = {str(p).rjust(width)}  class size {str(len(qs)).rjust(size_width)}  "
            + " ".join(f"({p},{q})" for q in qs)
            + "\n"
            for p, qs in classes.items()
        )
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", str(p_max))
        assert code == EXIT_OK
        assert out == expected
        assert digest is None or self._digest(out) == digest

    @pytest.mark.parametrize(
        "p_max, digest", [(50, None), (400, None), (1000, "e94bc4b67a14c976")]
    )
    def test_enumerate_records_match_gcd_table(self, capsys, p_max, digest):
        expected = "".join(
            json.dumps(
                {
                    "class_size": len(qs),
                    "kind": "ypq_class",
                    "members": [[p, q] for q in qs],
                    "p": p,
                }
            )
            + "\n"
            for p, qs in self._gcd_classes(p_max).items()
        )
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", str(p_max), "--format", "records")
        assert code == EXIT_OK
        assert out == expected
        assert digest is None or self._digest(out) == digest

    def test_enumerate_builds_no_params_and_one_totient_per_class(self, capsys, monkeypatch):
        from contactkit import ypq as ypq_module

        def refused(params):
            raise AssertionError(f"enumeration built {params!r}")

        totient_calls = []
        real_totient = ypq_module.totient

        def counted_totient(m):
            totient_calls.append(m)
            return real_totient(m)

        monkeypatch.setattr(ypq_module.YpqParams, "__post_init__", refused)
        monkeypatch.setattr(ypq_module, "totient", counted_totient)
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", "60")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 59
        assert sorted(totient_calls) == list(range(2, 61))

    @staticmethod
    def _records_ending_in_error(out):
        records = [json.loads(line) for line in out.splitlines()]
        assert records and records[-1]["kind"] == "error"
        return records[-1]

    def test_enumerate_bad_bound_is_an_error_record(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", "1", "--format", "records")
        assert code == EXIT_TORIC
        record = self._records_ending_in_error(out)
        assert record == {"kind": "error", "message": "enumeration needs p_max >= 2"}

    def test_refused_totient_is_an_error_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "ypq", "1000000000000000003", "1", "--format", "records"
        )
        assert code == EXIT_TORIC
        record = self._records_ending_in_error(out)
        assert record["message"] == (
            "totient(1000000000000000003) is refused: trial division is limited "
            "to arguments up to 10000000000000"
        )

    def test_enumerate_bad_bound_exits_toric(self, capsys):
        code, out, _ = run_cli(capsys, "ypq", "--enumerate", "1")
        assert code == EXIT_TORIC
        assert "p_max" in out

    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "ypq", "3")
        assert code == EXIT_USAGE
        code, _, err = run_cli(capsys, "ypq", "3", "1", "--enumerate", "6")
        assert code == EXIT_USAGE

    def test_non_integer_params_rejected_by_parser(self, capsys):
        code, _, _ = run_cli(capsys, "ypq", "three", "1")
        assert code == EXIT_USAGE


class TestRecords:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_refused(self, value):
        stream = io.StringIO()
        with pytest.raises(UsageError, match="check record holds a non-finite number"):
            _emit_record(stream, {"kind": "check", "detail": {"x": [1.0, value]}})
        assert stream.getvalue() == ""

    def test_finite_record_is_one_sorted_line(self):
        stream = io.StringIO()
        _emit_record(stream, {"kind": "note", "a": 1e308, "b": -0.0})
        assert stream.getvalue() == '{"a": 1e+308, "b": -0.0, "kind": "note"}\n'


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand_exits_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_battery_reuses_model_facts(self):
        model = build_model("darboux(1)")
        entries = model_battery(model, RunConfig(samples=16))
        labels = [label for label, _ in entries]
        assert labels == sorted(labels)
        fact_names = {fact.name for fact in model.expected}
        assert fact_names <= set(labels)
        assert any(label.startswith("lift_invariance[") for label in labels)
        assert "commuting_lifts" in labels
