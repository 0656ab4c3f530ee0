"""Self-test of the benchmark at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks the tracer against counts that repeat exactly on the program as it
stood when the benchmark was defined (one traced pass each):

- ``flow_sweep``: 800 SVD calls over 102,400 matrices, 4 distinct inputs;
- ``ypq_enum_400``: one ``ypq_report`` per member, sum of phi(p) for
  2 <= p <= 400 = 48,677, and no SVD at all;
- ``example_3_10``: ``cone.build_cone``, which ``models`` calls through a
  module attribute, gets spans of its own;

and the determinism promise: two fresh ``contactkit verify all`` processes
with the same seed print byte-identical output, and a second seed passes the
``verify_all_128`` gate.  A change that alters these counts on purpose (one
frame per battery, a slimmer ``--enumerate``) states the new counts here; the
timed runs of ``run.py`` do not depend on them.  Exit code 0 when every
check holds, 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys

from run import DEFAULT_SEED, SRC, load_package
from tracer import Tracer, layer_metrics, svd_distinct_inputs
from workloads import YPQ_MAX, WORKLOADS, ypq_classes


def traced_pass(package, name: str, seed: int):
    workload = WORKLOADS[name]()
    workload.prepare(package, seed)
    tracer = Tracer(package)
    with tracer:
        result = workload.run_pass()
    metrics = layer_metrics(tracer.spans, result.seconds, result.printed_bytes)
    return result, metrics, svd_distinct_inputs(tracer.spans)


def main() -> int:
    package = load_package()
    failures = 0

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")

    result, m, distinct = traced_pass(package, "flow_sweep", DEFAULT_SEED)
    check("flow_sweep gate", not result.misses and not result.failed_verdicts, f"{result.misses[:3]}")
    check("flow_sweep svd_calls", m["contact.svd_calls"] == 800, f"{m['contact.svd_calls']} (expected 800)")
    check(
        "flow_sweep svd_matrices",
        m["contact.svd_matrices"] == 102_400,
        f"{m['contact.svd_matrices']} (expected 102400)",
    )
    check("flow_sweep distinct svd inputs", distinct == 4, f"{distinct} (expected 4)")

    phi_sum = sum(len(members) for members in ypq_classes(YPQ_MAX).values())
    result, m, _ = traced_pass(package, "ypq_enum_400", DEFAULT_SEED)
    check("ypq_enum_400 gate", not result.misses, f"{result.misses[:3]}")
    check(
        "ypq_enum_400 report_calls",
        phi_sum == 48_677 and m["ypq.report_calls"] == phi_sum,
        f"{m['ypq.report_calls']} (expected sum of phi(p) = {phi_sum})",
    )
    check("ypq_enum_400 svd_calls", m["contact.svd_calls"] == 0, f"{m['contact.svd_calls']} (expected 0)")

    # models reaches build_cone as cone_mod.build_cone, not by a from-import.
    tracer = Tracer(package)
    with tracer:
        package.build_model("example_3_10").verify_all(samples=32, seed=DEFAULT_SEED)
    cone_spans = sum(span[0] == "cone:build_cone" for span in tracer.spans)
    check("example_3_10 build_cone spans", cone_spans > 0, f"{cone_spans} (expected > 0)")

    argv = [sys.executable, "-m", "contactkit.cli", "verify", "all", "--seed", str(DEFAULT_SEED)]
    env = {"PYTHONPATH": str(SRC)}
    first, second = (subprocess.run(argv, capture_output=True, env=env).stdout for _ in range(2))
    check("two processes, same seed", first == second and len(first) > 0, f"{len(first)} bytes each")

    workload = WORKLOADS["verify_all_128"]()
    workload.prepare(package, DEFAULT_SEED + 1)
    result = workload.run_pass()
    check(
        "second seed",
        not result.misses and not result.failed_verdicts,
        f"seed {DEFAULT_SEED + 1}: {result.attempted} checks, {result.misses[:3]}",
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
