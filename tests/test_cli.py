"""Command-line interface: parsing, batteries, exit codes, determinism."""

import hashlib
import io
import json
import math
import re
import subprocess
import sys

import pytest

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
    main,
    model_battery,
    parse_config_file,
    parse_one_form,
)
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
        code, out, _ = run_cli(capsys, "verify", "nope")
        assert code == EXIT_USAGE
        assert "unknown model" in out

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

    def test_all_expands_and_dedupes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "darboux(1)", "all", "--samples", "8", "--seed", "3"
        )
        assert code == EXIT_OK
        headers = [line for line in out.splitlines() if line.startswith("model ")]
        assert headers[0] == "model darboux(1)"
        assert len(headers) == len(set(headers)) == 9

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
