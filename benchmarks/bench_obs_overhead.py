"""Observability overhead: instrumentation must stay under 5%.

The obs layer's contract is "always available, never in the way": the
simulator hot loop carries no per-event instrumentation (structures
publish aggregate snapshots once per run), and the disabled-mode null
objects make every publish, emit and span a no-op.  This benchmark
holds the layer to that contract on a smoke-scale ``harness.simulate``
-- the fresh-compute path with its ``harness-run`` / ``trace-gen`` /
``warmup+measure`` spans and run metrics -- both disabled (the default
state every other benchmark runs in) and fully enabled (a recording
metrics registry and event log).
"""

from __future__ import annotations

import time

from repro.experiments import harness
from repro.experiments.designs import pdede_design
from repro.experiments.results import ResultRef
from repro.frontend.params import ICELAKE
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.workloads.suite import current_scale

from conftest import run_once

#: Maximum tolerated wall-time regression with the obs layer fully on.
MAX_OVERHEAD = 0.05

#: Timed runs per mode; the best of each is compared.
ROUNDS = 5


def _timed(ref, design) -> float:
    start = time.perf_counter()
    harness.simulate(ref, design)
    return time.perf_counter() - start


def test_obs_overhead_under_5_percent(benchmark):
    design = pdede_design()
    ref = ResultRef("server_oltp_00", current_scale(), design.key, ICELAKE, 0.3)
    harness.simulate(ref, design)  # warm the trace cache and code paths

    # Alternate the modes so machine drift lands on both sides.
    disabled = enabled = float("inf")
    for _ in range(ROUNDS):
        disabled = min(disabled, _timed(ref, design))
        with use_registry(MetricsRegistry()), use_event_log(EventLog()) as log:
            enabled = min(enabled, _timed(ref, design))
        assert [r["event"] for r in log.recent() if "span" in r] == [
            "trace-gen", "warmup+measure", "harness-run",
        ]

    overhead = enabled / disabled - 1.0
    print(
        f"\nobs overhead: disabled {disabled:.3f}s, enabled {enabled:.3f}s "
        f"({overhead:+.2%}, budget {MAX_OVERHEAD:.0%})"
    )
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.2%} exceeds {MAX_OVERHEAD:.0%}"
    )
    run_once(benchmark, harness.simulate, ref, design)
