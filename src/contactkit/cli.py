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

    The models' batteries run in parallel, on Linux only, where more than
    one CPU is usable (the process's CPU affinity).  The parent runs the
    model with the largest chart itself; ``os.fork`` makes one child per
    usable CPU, at most one per other model, and each child pulls the next
    of the other models, largest chart first, and sends its lines back.
    Once every battery has run, the parent writes the models in the order
    asked, so the output bytes and the exit code do not depend on the number
    of workers.  If a battery raises, or its worker dies, the parent runs
    that model again itself: the output stops after the same lines, with the
    same ``error:`` line and exit code, as in one process.  Every child is
    reaped before ``verify`` returns, also when the reader closes the output
    pipe or the run is interrupted.

``bracket CHART ETA F G POINT``
    Evaluates the bracket {f, g} induced by the 1-form ETA at POINT, along
    with the defining-system residuals of the two Hamiltonian fields.  The
    chart is a comma-separated coordinate list, the 1-form uses
    ``coeff*dx + coeff*dy + ...`` syntax, and POINT is a comma-separated
    number list.

``ypq P Q`` / ``ypq --enumerate P_MAX``
    Prints the full dossier (plus sampled level-set checks) of one toric
    member, or the equivalence-class table of every member with p <= P_MAX.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 geometric
precondition failure, 4 invalid toric parameters, 141 the reader closed the
output pipe (128 + SIGPIPE, as in ``contactkit ... | head -1``).  All output
is deterministic for a fixed command line: the same flags give
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import pickle
import struct
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .charts import Chart, DifferentialForm, one_form
from .contact import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    TOLERANCES,
    CheckResult,
    ContactSystem,
    GeometricError,
    hamiltonian_field,
    jacobi_bracket,
    release_shared_geometry,
)
from .cone import (
    build_cone,
    closure_check,
    commuting_lift_check,
    cone_hamiltonian,
    homogeneity_check,
    lift,
    lift_checks,
    nondegeneracy_check,
    scale_covariance_check,
)
from .expressions import ExprError, ScalarExpr, const, parse
from .models import ModelDescriptor, build_model, default_model_keys
from .ypq import (
    InvalidToricParameterError,
    YpqParams,
    circle_pairing_check,
    enumerate_structures,
    format_class_table,
    format_dossier,
    homogeneous_coordinate_check,
    is_free,
    reeb_positivity,
    ypq_report,
)

__all__ = [
    "RunConfig",
    "UsageError",
    "EXIT_OK",
    "EXIT_CHECK_FAILURE",
    "EXIT_USAGE",
    "EXIT_GEOMETRY",
    "EXIT_TORIC",
    "EXIT_BROKEN_PIPE",
    "model_battery",
    "parse_one_form",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_TORIC = 4
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, as a shell reports a process killed by it

_SCALE_FACTOR = 2.0


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


# -- expression and 1-form parsing -----------------------------------------


def _normalize(text: str) -> str:
    """ASCII-normalize user input (the unicode minus sign in particular)."""
    return text.replace("−", "-").strip()


def parse_one_form(chart: Chart, source: str) -> DifferentialForm:
    """Parse ``coeff*dx + coeff*dy + ...`` into a 1-form on ``chart``.

    The source is one expression over the chart coordinates and their
    differentials ``d<coord>``; it must be linear in the differentials.
    The coefficient of ``d<coord>`` is the partial derivative with respect
    to it, with the differentials set to 0.
    """
    text = "".join(_normalize(source).split())
    if not text:
        raise UsageError("empty 1-form")
    differentials = tuple("d" + name for name in chart.coords)
    zero = {name: const(0.0, chart.coords) for name in differentials}
    try:
        form = parse(text, chart.coords + differentials)
        coefficients = {}
        for name, differential in zip(chart.coords, differentials):
            coefficient = form.derivative(differential)
            if set(coefficient.free_coords) & set(differentials):
                raise UsageError(f"1-form {source!r} is not linear in {differential}")
            coefficients[name] = coefficient.substitute(zero, chart.coords)
        if form.substitute(zero, chart.coords).constant_value() != 0.0:
            raise UsageError(f"1-form {source!r} has a term without a differential")
    except ExprError as exc:
        raise UsageError(f"bad 1-form {source!r}: {exc}") from None
    return one_form(chart, coefficients)


def _parse_chart(argument: str) -> Chart:
    names = tuple(part.strip() for part in _normalize(argument).split(","))
    if any(not name for name in names):
        raise UsageError(f"bad chart argument {argument!r}: expected comma-separated names")
    for name in names:
        if name.startswith("d"):
            raise UsageError(
                f"coordinate {name!r} starts with 'd', which is reserved for differentials"
            )
    try:
        return Chart("cli", names)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad chart argument {argument!r}: {exc}") from None


def _parse_point(argument: str, dim: int) -> tuple[float, ...]:
    parts = _normalize(argument).split(",")
    try:
        values = tuple(float(part) for part in parts)
    except ValueError:
        raise UsageError(f"bad point argument {argument!r}: expected comma-separated numbers") from None
    if len(values) != dim:
        raise UsageError(f"point {argument!r} has {len(values)} coordinates, chart has {dim}")
    return values


def _parse_scalar(chart: Chart, source: str, what: str) -> ScalarExpr:
    try:
        return chart.parse(_normalize(source))
    except ExprError as exc:
        raise UsageError(f"bad {what} expression {source!r}: {exc}") from None


# -- report rendering ------------------------------------------------------


def _check_line(label: str, result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    line = (
        f"  {status}  {label:<44}  residual {result.max_residual:.6e}"
        f"  tol {result.tolerance:.6e}  samples {result.samples}"
    )
    if not result.passed and result.witness is not None:
        witness = ", ".join(f"{v:.6g}" for v in result.witness)
        line += f"\n        witness ({witness})"
    return line


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


# -- verify ----------------------------------------------------------------


def model_battery(model: ModelDescriptor, config: RunConfig) -> list[tuple[str, CheckResult]]:
    """Every check of one model, labelled and sorted.

    The battery is the model's expected facts plus the symplectization
    contracts: cone closure/nondegeneracy/homogeneity, scale covariance at a
    fixed factor, and -- for every closed-form (field, Hamiltonian) pair --
    the lift invariances and the induced-Hamiltonian contraction, with the
    commuting family checked jointly.  Checks from per-pair constructions are
    disambiguated as ``name[hamiltonian]``.
    """
    overrides = config.overrides
    samples, seed = config.samples, config.seed
    # Held for the whole battery, so the facts that build the same cone
    # (example_3_10's lifts, scale covariance) reuse it with its lifts.
    cone = build_cone(model.system, verify=False)
    entries = [(fact.name, fact.run(samples, seed, overrides)) for fact in model.expected]
    entries.append(("cone_closure", closure_check(cone, samples, seed, overrides)))
    entries.append(("cone_nondegeneracy", nondegeneracy_check(cone, samples, seed, overrides)))
    entries.append(("cone_homogeneity", homogeneity_check(cone, samples, seed, overrides)))
    entries.append(
        (
            "scale_covariance",
            scale_covariance_check(model.system, _SCALE_FACTOR, samples, seed, overrides),
        )
    )
    for vector, hamiltonian in model.hamiltonian_pairs:
        suffix = str(hamiltonian)
        lifted = lift(
            cone, vector, hamiltonian, samples=samples, seed=seed, tolerances=overrides,
            verify=False,
        )
        for result in lift_checks(cone, lifted, samples, seed, overrides):
            entries.append((f"{result.name}[{suffix}]", result))
        _, contraction = cone_hamiltonian(cone, vector, hamiltonian, samples, seed, overrides)
        entries.append((f"{contraction.name}[{suffix}]", contraction))
    if model.commuting_pairs:
        entries.append(
            (
                "commuting_lifts",
                commuting_lift_check(cone, model.commuting_pairs, samples, seed, overrides),
            )
        )
    entries.sort(key=lambda entry: entry[0])
    return entries


#: One task on the task pipe: a model index.  A pipe holds at least one
#: 4096-byte page, so a list of at most ``_MAX_PIPED_MODELS`` tasks is written
#: whole before any worker reads.
_TASK = struct.Struct("<I")
_MAX_PIPED_MODELS = 4096 // _TASK.size
#: The length prefix of one pickled outcome on a worker's result pipe.
_FRAME = struct.Struct("<Q")


def _worker_count(models: int) -> int:
    """How many processes run the batteries of ``models`` models: the
    parent, which runs one, and one child per usable CPU for the others, at
    most one process per model.  One process where only one CPU is usable,
    and off Linux (macOS system libraries are not safe to use after
    ``fork``, and Windows has none)."""
    if sys.platform != "linux" or models > _MAX_PIPED_MODELS:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return min(cpus + 1, models) if cpus > 1 else 1


def _report_lines(model: ModelDescriptor):
    """The model's report lines, computed when first iterated."""
    if model.report_lines is not None:
        yield from model.report_lines()


def _work(tasks, models: list, config: RunConfig, deliver) -> None:
    """The worker loop: for each model index that ``tasks`` yields, run the
    model's battery and report lines and call ``deliver(index, (entries,
    notes))``, then drop the model (it keeps its sampled points and cones)
    and the contact layer's shared geometry (it keeps the model's largest
    arrays).  A model that raises is delivered as ``None`` and ends the
    loop."""
    for index in tasks:
        try:
            outcome = model_battery(models[index], config), tuple(_report_lines(models[index]))
        except Exception:
            deliver(index, None)
            return
        finally:
            release_shared_geometry()
        models[index] = None
        deliver(index, outcome)


def _pulled(tasks: int):
    """Model indices read from the shared task pipe until it is empty.  One
    read takes one whole task, so no two workers get the same index."""
    while chunk := os.read(tasks, _TASK.size):
        yield _TASK.unpack(chunk)[0]


def _fork_worker(tasks: int, models: list, config: RunConfig):
    """Fork a worker that pulls from ``tasks`` and sends each outcome back as a
    length-prefixed pickle.  Returns its pid and the read end of its result
    pipe.  The child imports nothing, starts no thread, writes nothing to the
    parent's streams and leaves by ``os._exit``, whatever happens."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as results:

                def send(index, outcome):
                    payload = pickle.dumps((index, outcome), pickle.HIGHEST_PROTOCOL)
                    results.write(_FRAME.pack(len(payload)) + payload)
                    results.flush()

                _work(_pulled(tasks), models, config, send)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _receive(results, outcomes: list) -> None:
    """Read a worker's outcomes until it closes its pipe.  A frame cut short
    means that the worker died while writing it."""
    while len(header := results.read(_FRAME.size)) == _FRAME.size:
        (size,) = _FRAME.unpack(header)
        payload = results.read(size)
        if len(payload) < size:
            return
        index, outcome = pickle.loads(payload)
        outcomes[index] = outcome


def _run_batteries(models: list, config: RunConfig) -> list:
    """Every model's ``(entries, notes)``, by request index, from
    ``_worker_count`` processes: the parent and forked children.  The parent
    runs the model with the largest chart and no other, so that the longest
    battery starts at once, and the parent's work, its peak memory (the
    largest chart takes the most) and its profile are the same in every run,
    however the children share out the rest.  The other models, largest
    chart first, go on one task pipe that every child pulls from, so that
    the short ones fill in around the long ones; there is one child per
    usable CPU, so that every CPU stays busy once the parent's battery ends.
    One worker takes the models in request order, as that keeps the peak
    memory of the serial pass.  An entry is ``None`` where the battery
    raised, its worker died or no worker reached it after a raise.  Every
    child is reaped before this returns or raises.  ``models`` loses each
    model whose battery the parent ran."""
    outcomes: list = [None] * len(models)
    workers = _worker_count(len(models))
    if workers == 1:
        _work(range(len(models)), models, config, outcomes.__setitem__)
        return outcomes
    first, *order = sorted(
        range(len(models)), key=lambda index: (-models[index].system.chart.dim, index)
    )
    tasks, task_writer = os.pipe()
    children = []
    try:
        with os.fdopen(task_writer, "wb") as writer:
            writer.write(b"".join(_TASK.pack(index) for index in order))
        # Frozen objects are left alone by the children's collector, so the
        # pages that hold them stay shared instead of being copied.
        gc.freeze()
        try:
            for _ in range(workers - 1):
                children.append(_fork_worker(tasks, models, config))
        except OSError:
            pass  # out of processes: cmd_verify runs the models no child took
        finally:
            gc.unfreeze()
        _work((first,), models, config, outcomes.__setitem__)
        for _, results in children:
            _receive(results, outcomes)
    finally:
        # Take the tasks left, so that a child still at work stops after its
        # current battery, then reap every child.
        while os.read(tasks, 4096):
            pass
        os.close(tasks)
        for pid, results in children:
            results.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped already: the embedding process ignores SIGCHLD
    return outcomes


def cmd_verify(model_keys: Sequence[str], config: RunConfig, stream) -> int:
    """Run the requested models' batteries on every usable CPU (see
    ``_run_batteries``) and write them in request order: the same bytes and
    exit code as one process running them in turn, and where a battery
    raises, the same partial output before the same error."""
    requested: list[str] = []
    for key in model_keys:
        expanded = default_model_keys() if key == "all" else (key,)
        for item in expanded:
            if item not in requested:
                requested.append(item)
    try:
        models = [build_model(key) for key in requested]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    keys = [model.key for model in models]
    outcomes = _run_batteries(models, config)
    total = failed = 0
    for index, key in enumerate(keys):
        outcome, outcomes[index] = outcomes[index], None
        model, models[index] = models[index], None
        if outcome is None:
            # Its battery raised or its worker died: run it here, where the
            # serial pass runs it, so that an error follows the same lines.
            outcome = model_battery(model, config), _report_lines(model)
        entries, notes = outcome
        total += len(entries)
        failed += sum(1 for _, result in entries if not result.passed)
        if config.output == "text":
            stream.write(f"model {key}\n")
            for label, result in entries:
                stream.write(_check_line(label, result) + "\n")
            for line in notes:
                stream.write(line + "\n")
        else:
            for label, result in entries:
                _emit_record(
                    stream,
                    {"kind": "check", "model": key, "label": label, **result.to_record()},
                )
            for line in notes:
                _emit_record(stream, {"kind": "note", "model": key, "text": line})
    if config.output == "text":
        stream.write(f"summary: {total} checks, {total - failed} passed, {failed} failed\n")
    else:
        _emit_record(
            stream,
            {"kind": "summary", "checks": total, "passed": total - failed, "failed": failed},
        )
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


# -- bracket ---------------------------------------------------------------


def cmd_bracket(args: argparse.Namespace, config: RunConfig, stream) -> int:
    chart = _parse_chart(args.chart)
    eta = parse_one_form(chart, args.eta)
    try:
        system = ContactSystem(chart, eta, verify=False)
    except ValueError as exc:
        raise UsageError(f"bad chart argument {args.chart!r}: {exc}") from None
    f = _parse_scalar(chart, args.f, "f")
    g = _parse_scalar(chart, args.g, "g")
    point = _parse_point(args.point, chart.dim)
    point_text = ", ".join(f"{v:g}" for v in point)
    # The bracket needs the jets of f and g at the point; check them first
    # so that an undefined value is reported against its own argument.
    for what, expr in (("f", f), ("g", g)):
        try:
            expr.jets(point)
        except ExprError as exc:
            raise UsageError(f"{what} is undefined at ({point_text}): {exc}") from None
    try:
        value = jacobi_bracket(system, f, g).at(point)
        residuals = {
            "f": hamiltonian_field(system, f).residuals([point]),
            "g": hamiltonian_field(system, g).residuals([point]),
        }
    except GeometricError as exc:
        stream.write(f"error: contact condition fails: {exc}\n")
        return EXIT_GEOMETRY
    except ExprError as exc:
        raise UsageError(f"eta is undefined at ({point_text}): {exc}") from None
    if not math.isfinite(value):
        raise UsageError(f"{{f, g}} is not finite at ({point_text})")
    if config.output == "text":
        stream.write(f"{{f, g}}({point_text}) = {value:.12g}\n")
        for tag in sorted(residuals):
            parts = "  ".join(
                f"{name} {residuals[tag][name]:.6e}" for name in sorted(residuals[tag])
            )
            stream.write(f"defining_residuals[{tag}]  {parts}\n")
    else:
        _emit_record(
            stream,
            {
                "kind": "bracket",
                "f": str(f),
                "g": str(g),
                "point": list(point),
                "value": value,
            },
        )
        for tag in sorted(residuals):
            _emit_record(
                stream,
                {"kind": "residuals", "function": tag, **residuals[tag]},
            )
    return EXIT_OK


# -- ypq -------------------------------------------------------------------


def cmd_ypq(args: argparse.Namespace, config: RunConfig, stream) -> int:
    if args.enumerate_max is not None:
        if args.params:
            raise UsageError("give either P Q or --enumerate P_MAX, not both")
        classes = enumerate_structures(args.enumerate_max)
        if config.output == "text":
            stream.write(format_class_table(classes) + "\n")
        else:
            for p in sorted(classes):
                members = classes[p]
                _emit_record(
                    stream,
                    {
                        "kind": "ypq_class",
                        "p": p,
                        "class_size": len(members),
                        "members": [[m.p, m.q] for m in members],
                    },
                )
        return EXIT_OK
    if len(args.params) != 2:
        raise UsageError("expected two parameters P Q (or --enumerate P_MAX)")
    params = YpqParams(*args.params)
    free, explanation = is_free(params)
    if not free:
        if config.output == "text":
            stream.write(explanation + "\n")
        else:
            _emit_record(stream, {"kind": "error", "message": explanation})
        return EXIT_TORIC
    report = ypq_report(params)
    checks = [
        circle_pairing_check(params, config.samples, config.seed, config.overrides),
        reeb_positivity(params, config.samples, config.seed),
    ]
    if params.p % 2 == 1:
        checks.append(homogeneous_coordinate_check(params))
    checks.sort(key=lambda result: result.name)
    failed = sum(1 for result in checks if not result.passed)
    if config.output == "text":
        stream.write(format_dossier(report) + "\n")
        for result in checks:
            stream.write(_check_line(result.name, result) + "\n")
    else:
        _emit_record(stream, {"kind": "ypq_report", **report.to_record()})
        for result in checks:
            _emit_record(stream, {"kind": "check", "label": result.name, **result.to_record()})
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


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
    try:
        config = resolve_config(args)
        if args.command == "verify":
            return cmd_verify(args.models, config, stream)
        if args.command == "bracket":
            return cmd_bracket(args, config, stream)
        return cmd_ypq(args, config, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidToricParameterError as exc:
        stream.write(f"error: {exc}\n")
        return EXIT_TORIC
    except GeometricError as exc:
        stream.write(f"error: {exc}\n")
        return EXIT_GEOMETRY


if __name__ == "__main__":
    raise SystemExit(main())
