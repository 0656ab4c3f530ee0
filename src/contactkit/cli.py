"""Command-line interface: verification batteries, pointwise brackets, and
toric dossiers.

Three subcommands share a common configuration (seed, sample count, tolerance
overrides, output format):

``verify MODEL... | all``
    Runs each model's expected-fact battery plus the symplectization checks
    (cone closure, nondegeneracy, homogeneity, scale covariance, lifts and
    induced Hamiltonians of every closed-form pair, commuting lifts) and
    reports one line per check, sorted by label.  Exit 0 iff everything
    passes.

    The models' batteries run in parallel on the usable CPUs (see
    :mod:`contactkit.commands`); the output does not depend on how many.

``bracket CHART ETA F G POINT``
    Evaluates the bracket {f, g} induced by the 1-form ETA at POINT, along
    with the defining-system residuals of the two Hamiltonian fields.  The
    chart is a comma-separated coordinate list, the 1-form uses
    ``coeff*dx + coeff*dy + ...`` syntax, and POINT is a comma-separated
    number list.

``ypq P Q`` / ``ypq --enumerate P_MAX``
    Prints the full dossier (plus sampled level-set checks) of one toric
    member, or the equivalence-class table of every member with p <= P_MAX.

This module is the front end: the parser, the configuration, the exit
codes, the record and error writers, and ``ypq --enumerate``, which is
exact integer arithmetic.  It imports no numpy: ``verify``, ``bracket`` and
``ypq P Q`` run from :mod:`contactkit.commands`, imported when one of them
is dispatched.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 geometric
precondition failure, 4 invalid toric parameters, 141 the reader closed the
output pipe (128 + SIGPIPE, as in ``contactkit ... | head -1``).  All output
is deterministic for a fixed command line: the same flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .registry import DEFAULT_SAMPLES, DEFAULT_SEED, TOLERANCES
from .ypq import InvalidToricParameterError, class_table, format_table

__all__ = [
    "RunConfig",
    "UsageError",
    "EXIT_OK",
    "EXIT_CHECK_FAILURE",
    "EXIT_USAGE",
    "EXIT_GEOMETRY",
    "EXIT_TORIC",
    "EXIT_BROKEN_PIPE",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_TORIC = 4
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports a process killed by it


class UsageError(Exception):
    """A malformed command line, config file, or expression."""


@dataclass(frozen=True)
class RunConfig:
    """Shared run parameters resolved from defaults, config file, and flags."""

    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    tolerances: dict[str, float] = field(default_factory=dict)
    output: str = "text"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if self.output not in ("text", "records"):
            raise ValueError(f"output must be 'text' or 'records', got {self.output!r}")
        for name, value in self.tolerances.items():
            if name not in TOLERANCES:
                known = ", ".join(sorted(TOLERANCES))
                raise ValueError(f"unknown tolerance {name!r}; known names: {known}")
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"tolerance {name} must be positive and finite, got {value}")

    @property
    def overrides(self) -> Mapping[str, float] | None:
        return self.tolerances or None


# -- configuration resolution ----------------------------------------------


def _parse_tolerance_item(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or not name:
        raise UsageError(f"tolerance override must be NAME=VALUE, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise UsageError(f"tolerance value for {name!r} is not a number: {value!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines mirroring the command-line flags.

    Recognized keys: ``seed``, ``samples``, ``format``, and ``tol.NAME``.
    Blank lines and ``#`` comments are skipped.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values: dict = {"tolerances": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        try:
            if key == "seed":
                values["seed"] = int(value)
            elif key == "samples":
                values["samples"] = int(value)
            elif key == "format":
                if value not in ("text", "records"):
                    raise UsageError(f"{path}:{lineno}: format must be text or records")
                values["format"] = value
            elif key.startswith("tol."):
                values["tolerances"][key[4:]] = float(value)
            else:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    file_values = parse_config_file(args.config) if args.config else {"tolerances": {}}
    tolerances = dict(file_values["tolerances"])
    for item in args.tol or ():
        name, value = _parse_tolerance_item(item)
        tolerances[name] = value
    seed = args.seed if args.seed is not None else file_values.get("seed", DEFAULT_SEED)
    samples = (
        args.samples if args.samples is not None else file_values.get("samples", DEFAULT_SAMPLES)
    )
    output = args.format if args.format is not None else file_values.get("format", "text")
    try:
        return RunConfig(seed=seed, samples=samples, tolerances=tolerances, output=output)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- record and error writers ----------------------------------------------


def _emit_record(stream, record: dict) -> None:
    """One JSON line.  ``inf`` and ``nan`` have no JSON form, so a record
    holding one is refused instead of printed as ``Infinity`` or ``NaN``."""
    try:
        line = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:
        raise UsageError(
            f"{record['kind']} record holds a non-finite number, which JSON cannot carry"
        ) from None
    stream.write(line + "\n")


def _write_error(stream, config: RunConfig | None, message: str) -> None:
    """An error on stdout: an ``error:`` line, or an ``error`` record in
    records mode."""
    if config is not None and config.output == "records":
        _emit_record(stream, {"kind": "error", "message": message})
    else:
        stream.write(f"error: {message}\n")


# -- ypq --enumerate -------------------------------------------------------


def cmd_ypq(args: argparse.Namespace, config: RunConfig, stream) -> int:
    """``ypq --enumerate P_MAX``: the class table, in exact integers."""
    if args.params:
        raise UsageError("give either P Q or --enumerate P_MAX, not both")
    table = class_table(args.enumerate_max)
    if config.output == "text":
        stream.write(format_table(table) + "\n")
    else:
        for p, qs in table.items():
            _emit_record(
                stream,
                {
                    "kind": "ypq_class",
                    "p": p,
                    "class_size": len(qs),
                    "members": [[p, q] for q in qs],
                },
            )
    return EXIT_OK


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base RNG seed")
    common.add_argument("--samples", type=int, default=None, help="sample count per check")
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        default=None,
        help="tolerance override (repeatable)",
    )
    common.add_argument(
        "--format", choices=("text", "records"), default=None, help="output format"
    )
    common.add_argument("--config", default=None, help="flat key = value config file")
    parser = argparse.ArgumentParser(
        prog="contactkit",
        description="Verification batteries, pointwise brackets, and toric dossiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", parents=[common], help="run model check batteries")
    verify.add_argument("models", nargs="+", help="model keys, or 'all'")
    bracket = sub.add_parser(
        "bracket", parents=[common], help="evaluate a bracket at a point"
    )
    bracket.add_argument("chart", help="comma-separated coordinate names, e.g. x,y,z")
    bracket.add_argument("eta", help="1-form, e.g. 'dz - y*dx'")
    bracket.add_argument("f", help="first function")
    bracket.add_argument("g", help="second function")
    bracket.add_argument("point", help="comma-separated coordinates, e.g. 1,2,3")
    ypq = sub.add_parser("ypq", parents=[common], help="toric dossiers")
    ypq.add_argument("params", nargs="*", type=int, help="the two parameters P Q")
    ypq.add_argument(
        "--enumerate",
        dest="enumerate_max",
        type=int,
        default=None,
        metavar="P_MAX",
        help="list equivalence classes up to P_MAX",
    )
    return parser


#: Options shared by every command (see ``build_parser``) that take a value.
_VALUE_OPTIONS = ("--seed", "--samples", "--tol", "--format", "--config")


def _operands_last(tokens: Sequence[str]) -> list[str]:
    """The ``bracket`` arguments reordered as ``OPTIONS -- OPERANDS``.

    A function or point may start with an ASCII minus (``-y``, ``-1,2,3``),
    which argparse would take for an unknown option; after ``--`` every
    token is an operand.  A token is an option only if it is ``-h``,
    ``--help``, or one of :data:`_VALUE_OPTIONS` (with ``=VALUE`` or
    followed by its value).
    """
    options: list[str] = []
    operands: list[str] = []
    rest = iter(tokens)
    for token in rest:
        if token == "--":
            operands.extend(rest)
        elif token in ("-h", "--help"):
            options.append(token)
        elif token.split("=", 1)[0] in _VALUE_OPTIONS:
            options.append(token)
            if "=" not in token:
                options.extend(itertools.islice(rest, 1))
        else:
            operands.append(token)
    return [*options, "--", *operands]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["bracket"]:
        argv[1:] = _operands_last(argv[1:])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    stream = sys.stdout
    try:
        code = _run(args, stream)
        # Flush inside the try, so that a reader that went away is seen here.
        stream.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``), which is not a failed
        # check.  Point stdout at devnull so that the interpreter's own
        # flush at exit does not raise again (see "Note on SIGPIPE" in the
        # Python ``signal`` documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _run(args: argparse.Namespace, stream) -> int:
    config = None
    try:
        config = resolve_config(args)
        if args.command == "ypq" and args.enumerate_max is not None:
            return cmd_ypq(args, config, stream)
        # The other commands use the numeric core, which is imported here
        # and not before, so that the parser and the enumeration start
        # without numpy.
        from . import commands

        return commands.run(args, config, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidToricParameterError as exc:
        _write_error(stream, config, str(exc))
        return EXIT_TORIC


if __name__ == "__main__":
    # Under ``python -m contactkit.cli`` this file runs as ``__main__``, a
    # second module beside the ``contactkit.cli`` that ``contactkit.commands``
    # imports.  Run the latter's ``main``, so that the errors the commands
    # raise are the classes that ``_run`` catches.
    from contactkit.cli import main

    raise SystemExit(main())
