"""contactkit benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_all_128 --seed 20110615 --seconds 30 --trace 0

With ``--trace 0`` the client repeats passes of the workload for about
``--seconds`` seconds with tracing off, checks every pass's output, and
reports the end-to-end metrics; the set-up spawns behind ``setup_s`` are
spread between the passes, so that they sample the same stretch of time.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
of the last traced pass are written to ``perfbench/out/``.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts failed operations: failed check verdicts, correctness-gate
misses and crashes.  ``correct`` is false when the gate finds an output that
is wrong without the program saying so (a missing label, a non-finite
residual, a wrong class size, a pass whose output differs from the first
pass with the same seed, a traced pass whose output differs from an
untraced one) or when the program crashes.  A check the program itself
reports as FAIL is a failed operation, not a hidden wrong answer.

Times are wall-clock seconds as measured, with no correction for the
machine.  On a shared virtual machine the speed of the same code switches
between a contended state (most of the time) and uncontended stretches up
to 1.7x faster that last tens of seconds.  A run therefore repeats passes
for its whole time budget.  The median pass time, printed with the
quartiles, flips between the two states from run to run when passes are
short; the upper quartile ``run_s.q3`` stays in the contended state and is
the figure the run reports.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, METRIC_UNITS, Tracer, layer_metrics, write_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20110615
SETUP_SPAWNS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import contactkit.cli as cli; cli.build_parser()"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s.q3": "s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import contactkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "contactkit" / "cli.py").is_file():
        raise SystemExit(f"error: no contactkit sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("contactkit")
    for layer in LAYERS:
        importlib.import_module(f"contactkit.{layer}")
    if Path(package.__file__).resolve().parent != SRC / "contactkit":
        raise SystemExit(f"error: imported contactkit from {package.__file__}, not {SRC}")
    return package


def measure_setup(times: list[float], count: int) -> None:
    """Append to ``times`` the wall seconds of ``count`` fresh interpreters
    that each import ``contactkit.cli`` and build its parser, spawn to exit."""
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(time.perf_counter() - start)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: list[float]) -> str:
    return (
        f"median {statistics.median(values):.6g}  q1 {percentile(values, 0.25):.6g}"
        f"  q3 {percentile(values, 0.75):.6g}  n {len(values)}"
    )


class Gate:
    """Accumulates attempted and failed operations over all passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: str | None = None

    def record(self, result, what: str) -> None:
        """Count the pass's operations and misses, then compare its output
        with the first pass's and drop it, so that the run's memory does
        not grow with the number of passes."""
        self.attempted += result.attempted
        self.failed += result.failed_verdicts + len(result.misses)
        for message in result.misses[:5]:
            print(f"gate miss ({what}): {message}")
        if result.misses:
            self.correct = False
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            print(f"gate miss ({what}): output differs from the first pass with this seed")
            self.failed += 1
            self.correct = False
        result.output = None

    def crash(self) -> None:
        traceback.print_exc()
        self.failed += 1
        self.attempted = max(self.attempted, self.failed)
        self.correct = False


def run_passes(workload, seconds: float, gate: Gate, traced: bool, package, setup=None):
    """Closed loop: start another pass while the last one still fits in
    ``seconds``; at least two untraced passes (and as many traced ones,
    alternating, when ``traced``).  With a ``setup`` list, set-up spawns are
    made before each pass so that ``SETUP_SPAWNS`` of them are spread evenly
    over the run's time.  Returns ``(plain, layers, spans)``: the untraced
    passes' results (their outputs dropped), the per-layer metrics of each
    traced pass, and the spans of the last traced pass."""
    plain, layers, spans = [], [], None
    start = time.perf_counter()
    longest = 0.0
    while True:
        for trace_this in (False, True) if traced else (False,):
            if setup is not None:
                due = 1 + int(SETUP_SPAWNS * (time.perf_counter() - start) / seconds)
                measure_setup(setup, min(due, SETUP_SPAWNS) - len(setup))
            gc.collect()
            tracer = Tracer(package) if trace_this else None
            try:
                if tracer:
                    with tracer:
                        result = workload.run_pass()
                else:
                    result = workload.run_pass()
            except Exception:
                gate.crash()
                return plain, layers, spans
            gate.record(result, f"pass {len(plain) + len(layers) + 1}{' (traced)' if tracer else ''}")
            if tracer:
                spans = tracer.spans
                layers.append(layer_metrics(spans, result.seconds, result.printed_bytes))
            else:
                plain.append(result)
            longest = max(longest, result.seconds)
        if len(plain) >= 2 and time.perf_counter() - start + longest * (2 if traced else 1) > seconds:
            if setup is not None:
                measure_setup(setup, SETUP_SPAWNS - len(setup))
            return plain, layers, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = load_package()
    workload = WORKLOADS[args.workload]()
    workload.prepare(package, args.seed)

    gate = Gate()
    setup = None if args.trace else []
    plain, per_pass, spans = run_passes(workload, args.seconds, gate, bool(args.trace), package, setup)
    if not plain or (args.trace and not per_pass):
        print("error: no pass completed", file=sys.stderr)
        return 1
    pass_s = [r.seconds for r in plain]
    requests = [ms for r in plain for ms in r.request_ms]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"run_s  {quartiles(pass_s)}")
    if requests:
        print(
            f"check_ms  p50 {percentile(requests, 0.5):.6g}  p98 {percentile(requests, 0.98):.6g}"
            f"  requests {len(requests)}"
        )
    print(
        f"gate  attempted {gate.attempted}  failed {gate.failed}"
        f"  failed_share {gate.failed / max(gate.attempted, 1):.6g}  correct {gate.correct}"
    )

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s.q3": percentile(pass_s, 0.75),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup_s  {quartiles(setup)}")
        units = END_TO_END_UNITS
    else:
        # Times vary from pass to pass, so take their median; counts repeat
        # exactly, so take the last pass's.
        metrics = {
            name: statistics.median(m[name] for m in per_pass) if unit == "s" else per_pass[-1][name]
            for name, unit in METRIC_UNITS.items()
        }
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(pass_s)
        run_s = metrics["trace.run_s"]
        for name, value in metrics.items():
            share = f"  {value / run_s:6.1%} of traced run" if METRIC_UNITS[name] == "s" else ""
            print(f"{name:<30} {value:.6g}{share}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, spans)
        print(f"spans of the last traced pass: {path.relative_to(ROOT)}")
        units = METRIC_UNITS

    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": max(gate.attempted, 1),
                "failed": gate.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
