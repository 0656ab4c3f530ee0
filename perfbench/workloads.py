"""The benchmark's workloads: seeded inputs, one pass each, and the
correctness gate for a pass's output.

A pass is what one closed-loop client does once: a whole ``contactkit``
command for the CLI workloads, or 800 ``verify_flow_identity`` requests for
``flow_sweep``.  Every pass returns its full output as text so that passes
with the same seed can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_CHECKS = Path(__file__).with_name("expected_checks.json")
FLOW_KEYS = ("darboux(1)", "darboux(2)", "heisenberg(1)", "heisenberg(2)")
FLOW_PAIRS = 200
FLOW_SAMPLES = 128
FLOW_WORST = 1e-8  # the bound tests/test_acceptance.py asserts for this sweep
YPQ_MAX = 400

_CHECK_LINE = re.compile(
    r"^  (PASS|FAIL)  (.+?)\s+residual (\S+)  tol (\S+)  samples (\d+)$"
)
_CLASS_LINE = re.compile(r"^p = \s*(\d+)  class size\s+(\d+)  (.*)$")
_SUMMARY = re.compile(r"^summary: (\d+) checks, (\d+) passed, (\d+) failed$")


@dataclass
class PassResult:
    """One pass: its output, its request latencies, and what the gate found.

    ``request_ms`` is empty when the pass is a single request (a whole
    command), whose latency is then the pass time itself.
    """

    output: str
    seconds: float
    request_ms: list[float]
    printed_bytes: int = 0
    attempted: int = 0
    failed_verdicts: int = 0
    misses: list[str] = field(default_factory=list)


def run_cli(cli, argv: list[str]) -> tuple[str, int]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return buffer.getvalue(), code


class VerifyAll:
    """``contactkit verify all --samples N --seed S`` (9 models, 163 checks)."""

    def __init__(self, samples: int) -> None:
        self.samples = samples

    def prepare(self, package, seed: int) -> None:
        self.cli = package.cli
        self.argv = ["verify", "all", "--samples", str(self.samples), "--seed", str(seed)]
        self.expected = json.loads(EXPECTED_CHECKS.read_text())

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        output, code = run_cli(self.cli, self.argv)
        seconds = time.perf_counter() - start
        result = PassResult(output + f"exit {code}\n", seconds, [], len(output.encode()))
        self._gate(output, code, result)
        return result

    def _gate(self, output: str, code: int, result: PassResult) -> None:
        miss = result.misses.append
        found: dict[str, list[str]] = {}
        model = None
        passed = failed = 0
        summary = None
        for line in output.splitlines():
            if line.startswith("model "):
                model = line[len("model "):]
                found[model] = []
                continue
            match = _CHECK_LINE.match(line)
            if match:
                verdict, label, residual, tol, samples = match.groups()
                result.attempted += 1
                found.setdefault(model, []).append(label)
                residual, tol = float(residual), float(tol)
                if not (math.isfinite(residual) and math.isfinite(tol)):
                    miss(f"{model} {label}: non-finite residual {residual} or tol {tol}")
                elif verdict == "PASS" and residual > tol:
                    miss(f"{model} {label}: PASS with residual {residual} > tol {tol}")
                if int(samples) < 1:
                    miss(f"{model} {label}: samples {samples}")
                if verdict == "FAIL":
                    failed += 1
                    result.failed_verdicts += 1
                else:
                    passed += 1
                continue
            match = _SUMMARY.match(line)
            if match:
                summary = tuple(int(g) for g in match.groups())
        if found != self.expected:
            missing = sum(len(v) for v in self.expected.values()) - result.attempted
            miss(f"check labels differ from {EXPECTED_CHECKS.name} ({missing:+d} missing)")
            result.attempted = max(result.attempted, sum(len(v) for v in self.expected.values()))
        if summary != (passed + failed, passed, failed):
            miss(f"summary {summary} does not match {passed} passed, {failed} failed")
        if "isotropy_defect(1,2,3) = 2" not in output.splitlines():
            miss("example_3_10 dossier line 'isotropy_defect(1,2,3) = 2' missing")
        if code != (1 if failed else 0):
            miss(f"exit code {code} with {failed} failed checks")


class FlowSweep:
    """800 ``verify_flow_identity`` requests through the Python API: 200
    seeded degree-3 polynomial pairs on each of four model systems."""

    def prepare(self, package, seed: int) -> None:
        # Calls go through the package's public names, as a user's would.
        self.package = package
        self.seed = seed
        rng = np.random.default_rng([seed, 0xF10])
        self.sources: dict[str, list[tuple[str, str]]] = {}
        for key in FLOW_KEYS:
            coords = package.build_model(key).system.chart.coords
            self.sources[key] = [
                (_polynomial(coords, rng), _polynomial(coords, rng)) for _ in range(FLOW_PAIRS)
            ]

    def run_pass(self) -> PassResult:
        build_model, verify = self.package.build_model, self.package.verify_flow_identity
        clock = time.perf_counter
        lines: list[str] = []
        latencies: list[float] = []
        results = []
        start = clock()
        for key in FLOW_KEYS:
            system = build_model(key).system
            parse = system.chart.parse
            for h_src, f_src in self.sources[key]:
                h, f = parse(h_src), parse(f_src)
                t0 = clock()
                check = verify(system, h, f, samples=FLOW_SAMPLES, seed=self.seed)
                latencies.append((clock() - t0) * 1e3)
                results.append((key, check))
        seconds = clock() - start
        for key, check in results:
            lines.append(f"{key} {check.passed} {check.max_residual!r} {check.samples}")
        result = PassResult("\n".join(lines) + "\n", seconds, latencies)
        for i, (key, check) in enumerate(results):
            result.attempted += 1
            if not math.isfinite(check.max_residual):
                result.misses.append(f"{key} pair {i}: non-finite residual {check.max_residual}")
            elif not check.passed or check.max_residual >= FLOW_WORST:
                result.failed_verdicts += 1
        return result


def _polynomial(coords: tuple[str, ...], rng: np.random.Generator, terms: int = 8) -> str:
    """Source text of a polynomial of total degree <= 3 with coefficients
    uniform in [-1, 1] (six decimals) and exponents drawn by total degree."""
    parts = []
    for _ in range(terms):
        exponents = [0] * len(coords)
        for _ in range(int(rng.integers(0, 4))):
            exponents[int(rng.integers(0, len(coords)))] += 1
        factors = [f"{rng.uniform(-1.0, 1.0):.6f}"]
        factors += [f"{c}^{e}" if e > 1 else c for c, e in zip(coords, exponents) if e]
        parts.append("(" + "*".join(factors) + ")")
    return " + ".join(parts)


def ypq_classes(p_max: int) -> dict[int, list[str]]:
    """The expected class table: class ``p`` lists every ``(p,q)`` with
    ``1 <= q < p`` coprime to ``p``, so its size is Euler's phi(p) counted
    by gcd here rather than taken from ``ypq.totient``."""
    return {
        p: [f"({p},{q})" for q in range(1, p) if math.gcd(p, q) == 1]
        for p in range(2, p_max + 1)
    }


class YpqEnumerate:
    """``contactkit ypq --enumerate 400`` (399 classes, exact arithmetic)."""

    def prepare(self, package, seed: int) -> None:
        self.cli = package.cli
        self.argv = ["ypq", "--enumerate", str(YPQ_MAX)]
        self.expected = ypq_classes(YPQ_MAX)

    def run_pass(self) -> PassResult:
        start = time.perf_counter()
        output, code = run_cli(self.cli, self.argv)
        seconds = time.perf_counter() - start
        result = PassResult(output + f"exit {code}\n", seconds, [], len(output.encode()))
        seen: dict[int, tuple[int, list[str]]] = {}
        for line in output.splitlines():
            match = _CLASS_LINE.match(line)
            if match is None:
                result.misses.append(f"unexpected line {line[:80]!r}")
                continue
            seen[int(match.group(1))] = (int(match.group(2)), match.group(3).split())
        for p, members in self.expected.items():
            result.attempted += 1
            size, listed = seen.pop(p, (None, None))
            if size != len(members) or listed != members:
                result.misses.append(f"class p={p}: size {size}, expected phi(p)={len(members)}")
        if seen:
            result.misses.append(f"unexpected classes {sorted(seen)[:5]}")
        if code != 0:
            result.misses.append(f"exit code {code}")
        return result


WORKLOADS = {
    "verify_all_128": lambda: VerifyAll(128),
    "verify_all_4096": lambda: VerifyAll(4096),
    "flow_sweep": FlowSweep,
    "ypq_enum_400": YpqEnumerate,
}
