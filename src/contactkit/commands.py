"""The commands that use the numeric core: ``verify``, ``bracket`` and the
``ypq P Q`` dossier.

:mod:`contactkit.cli` imports this module when one of these commands runs,
so its parser, ``--help``, configuration errors and ``ypq --enumerate``
load no numpy.  Each command returns its exit code and raises the CLI's
``UsageError`` for bad input; :func:`run` also turns a failed geometric
precondition into an error on stdout with exit code 3.

``verify`` runs the models' batteries in parallel, on Linux only, where
more than one CPU is usable (the process's CPU affinity).  The parent runs
the model with the largest chart itself; ``os.fork`` makes one child per
usable CPU, at most one per other model, and each child pulls the next of
the other models, largest chart first, and sends its lines back.  Once
every battery has run, the parent writes the models in the order asked, so
the output bytes and the exit code do not depend on the number of workers.
If a battery raises, or its worker dies, the parent runs that model again
itself: the output stops after the same lines, with the same ``error:``
line and exit code, as in one process.  Every child is reaped before
``verify`` returns, also when the reader closes the output pipe or the run
is interrupted.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import pickle
import struct
import sys
from collections.abc import Sequence

from .charts import Chart, DifferentialForm, one_form
from .cli import (
    EXIT_CHECK_FAILURE,
    EXIT_GEOMETRY,
    EXIT_OK,
    EXIT_TORIC,
    RunConfig,
    UsageError,
    _emit_record,
    _write_error,
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
from .contact import CheckResult, ContactSystem, GeometricError, hamiltonian_field, jacobi_bracket
from .expressions import ExprError, ScalarExpr, const, parse
from .models import ModelDescriptor, build_model, default_model_keys
from .ypq import YpqParams, format_dossier, is_free, ypq_report
from .ypq_checks import circle_pairing_check, homogeneous_coordinate_check, reeb_positivity

__all__ = ["run", "cmd_verify", "cmd_bracket", "cmd_dossier", "model_battery", "parse_one_form"]

_SCALE_FACTOR = 2.0


def run(args: argparse.Namespace, config: RunConfig, stream) -> int:
    """Run ``args.command``: ``verify``, ``bracket``, or ``ypq`` with two
    parameters.  A failed geometric precondition is written as an error and
    exits 3."""
    try:
        if args.command == "verify":
            return cmd_verify(args.models, config, stream)
        if args.command == "bracket":
            return cmd_bracket(args, config, stream)
        return cmd_dossier(args, config, stream)
    except GeometricError as exc:
        _write_error(stream, config, str(exc))
        return EXIT_GEOMETRY


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
    # ``nan``, ``inf`` and ``1e400`` parse as floats, but no chart has such a point.
    if not all(map(math.isfinite, values)):
        raise UsageError(f"bad point argument {argument!r}: coordinates must be finite")
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


# -- verify ----------------------------------------------------------------


def model_battery(model: ModelDescriptor, config: RunConfig) -> list[tuple[str, CheckResult]]:
    """Every check of one model, labelled and sorted.

    The battery is the model's expected facts plus the symplectization
    contracts: cone closure/nondegeneracy/homogeneity, scale covariance at a
    fixed factor, and -- for every closed-form (field, Hamiltonian) pair --
    the lift invariances and the induced-Hamiltonian contraction, with the
    commuting family checked jointly.  Checks from per-pair constructions are
    disambiguated as ``name[hamiltonian]``.  The battery builds the cone once
    and lifts each pair once, and passes them to every check that needs them.
    The cone checks run first, and their cone is gone before the facts keep
    the system's geometry, so the two sets of arrays are never held at once.
    """
    entries = _cone_entries(model, config)
    entries += [
        (fact.name, fact.run(config.samples, config.seed, config.overrides))
        for fact in model.expected
    ]
    entries.sort(key=lambda entry: entry[0])
    return entries


def _cone_entries(model: ModelDescriptor, config: RunConfig) -> list[tuple[str, CheckResult]]:
    """The symplectization contracts of ``model``'s battery, on one cone that
    dies, with the cone geometry it keeps, when this returns."""
    overrides = config.overrides
    samples, seed = config.samples, config.seed
    cone = build_cone(model.system, verify=False)
    entries = [("cone_closure", closure_check(cone, samples, seed, overrides))]
    entries.append(("cone_nondegeneracy", nondegeneracy_check(cone, samples, seed, overrides)))
    entries.append(("cone_homogeneity", homogeneity_check(cone, samples, seed, overrides)))
    entries.append(
        ("scale_covariance", scale_covariance_check(cone, _SCALE_FACTOR, samples, seed, overrides))
    )
    lifts = {}
    for vector, hamiltonian in model.hamiltonian_pairs:
        suffix = str(hamiltonian)
        lifted = lifts[vector, hamiltonian] = lift(
            cone, vector, hamiltonian, samples=samples, seed=seed, tolerances=overrides,
            verify=False,
        )
        for result in lift_checks(cone, lifted, samples, seed, overrides):
            entries.append((f"{result.name}[{suffix}]", result))
        _, contraction = cone_hamiltonian(cone, lifted, hamiltonian, samples, seed, overrides)
        entries.append((f"{contraction.name}[{suffix}]", contraction))
    if model.commuting_pairs:
        family = [lifts[pair] for pair in model.commuting_pairs]
        entries.append(
            ("commuting_lifts", commuting_lift_check(cone, family, samples, seed, overrides))
        )
    return entries


#: One task on the task pipe: a model index.  A pipe holds at least one
#: 4096-byte page, so a list of at most ``_MAX_PIPED_MODELS`` tasks is written
#: whole before any worker reads.
_TASK = struct.Struct("<I")
_MAX_PIPED_MODELS = 4096 // _TASK.size


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
    notes))``, then drop the model and with it what its checks kept: its
    sampled points, its cones and its solved arrays, the largest.  A model
    that raises is delivered as ``None`` and ends the loop."""
    for index in tasks:
        try:
            outcome = model_battery(models[index], config), tuple(_report_lines(models[index]))
        except Exception:
            deliver(index, None)
            return
        models[index] = None
        deliver(index, outcome)


def _pulled(tasks: int):
    """Model indices read from the shared task pipe until it is empty.  One
    read takes one whole task, so no two workers get the same index."""
    while chunk := os.read(tasks, _TASK.size):
        yield _TASK.unpack(chunk)[0]


def _fork_worker(tasks: int, models: list, config: RunConfig):
    """Fork a worker that pulls from ``tasks`` and sends each outcome back as
    one pickle.  Returns its pid and the read end of its result pipe.  The
    child imports nothing, starts no thread, writes nothing to the parent's
    streams and leaves by ``os._exit``, whatever happens."""
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
                    pickle.dump((index, outcome), results, pickle.HIGHEST_PROTOCOL)
                    results.flush()

                _work(_pulled(tasks), models, config, send)
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _receive(results, outcomes: list) -> None:
    """Read a worker's outcomes until it closes its pipe.  A pickle cut
    short means that the worker died while writing it."""
    while True:
        try:
            index, outcome = pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            return
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
        # One model per normalized key: "darboux( 1 )" is darboux(1).
        models = list({model.key: model for model in map(build_model, requested)}.values())
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
        _write_error(stream, config, f"contact condition fails: {exc}")
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


# -- ypq P Q ---------------------------------------------------------------


def cmd_dossier(args: argparse.Namespace, config: RunConfig, stream) -> int:
    """``ypq P Q``: the dossier of one member, with its level-set checks."""
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
