"""One fresh sweep process: a researcher's ``repro experiment``.

Run by ``sweep.py``, never by hand.  Two modes:

``setup``
    import the experiment stack and generate the apps' traces into the
    disk cache named by ``REPRO_DISK_CACHE_DIR`` (the cold trace tier),
    with a ``HostProbe`` sampling the host's speed;
``sweep``
    run every design of ``design_registry()`` over the apps through
    ``harness.run_design``, serially, with the memo empty (a fresh
    process) and the result tier emptied by the caller.  With
    ``--trace 1`` every layer call is a span and the recording metrics
    registry is on; without it a ``HostProbe`` samples the host's speed
    throughout, and every figure excludes the probe's own time.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Spans, median, percentile, time_lookups  # noqa: E402

#: Layers whose self time is attributed (everything else is unattributed).
ATTRIBUTED = (
    "workloads.trace_load",
    "workloads.decode",
    "workloads.prepare",
    "frontend.kernel.vector",
    "frontend.kernel.fast",
    "frontend.kernel.general",
    "experiments.publish",
)


#: How often the host probe samples the host's speed, and the rounds of
#: its fixed loop (about a millisecond on a 2-core x86 host).
PROBE_INTERVAL_S = 0.02
PROBE_ROUNDS = 4000


class HostProbe:
    """Samples the host's current speed while the sweep runs.

    Every ``PROBE_INTERVAL_S`` a timer signal runs a fixed pure-Python
    loop (random dict reads and writes) in the sweep's own thread and
    records how long it took; the program under test never touches it.
    An inactive probe records nothing (traced sweeps, whose layer spans
    must not contain it).
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: list[float] = []
        self._table = dict.fromkeys(range(1 << 12), 0)

    def _tick(self, signum, frame) -> None:
        table = self._table
        begin = time.perf_counter()
        state = 1
        for _ in range(PROBE_ROUNDS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state & 0xFFF
            table[key] = (table[key] + 1) & 0xFFFF
        self.samples.append(time.perf_counter() - begin)

    def __enter__(self) -> "HostProbe":
        if self.active:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def install_spans(spans: Spans) -> None:
    """Wrap the public layer calls a ``run_design`` goes through."""
    from repro.experiments import diskcache
    from repro.frontend.simulator import FrontendSimulator
    from repro.workloads.decoded import DecodedTrace

    spans.wrap(diskcache, "load_trace", "workloads.trace_load")
    spans.wrap(DecodedTrace, "from_trace", "workloads.decode")
    spans.wrap(DecodedTrace, "vector_columns", "workloads.decode")
    for replay in (
        "direction_outcomes", "direction_array", "icache_misses",
        "icache_miss_array", "ras_outcomes",
    ):
        spans.wrap(DecodedTrace, replay, "workloads.prepare")
    spans.wrap(
        FrontendSimulator, "run", "frontend.kernel",
        relabel=lambda args, stats: f"frontend.kernel.{stats.engine}",
    )
    spans.wrap(diskcache, "store_result", "experiments.publish")


def setup(apps: list[str], scale: str) -> dict:
    from repro.experiments import harness  # noqa: F401 - the import is the cost
    from repro.workloads.suite import get_trace

    return {"events": {app: len(get_trace(app, scale)) for app in apps}}


def sweep(apps: list[str], scale: str, traced: bool) -> dict:
    from repro.experiments import harness
    from repro.experiments.designs import design_registry
    from repro.frontend.params import ICELAKE
    from repro.obs.metrics import MetricsRegistry, NullRegistry, use_registry
    from repro.serve.protocol import stats_payload

    registry = design_registry()
    spans = Spans()
    metrics = MetricsRegistry() if traced else NullRegistry()
    if traced:
        install_spans(spans)
    runs = []
    results = {}
    with use_registry(metrics), HostProbe(active=not traced) as probe:
        started = time.perf_counter()
        for app in apps:
            for name, design in registry.items():
                spans.op = f"{app}/{name}"
                first = len(probe.samples)
                begin = time.perf_counter()
                stats = harness.run_design(app, design, scale=scale)
                seconds = time.perf_counter() - begin
                probes = probe.samples[first:]
                runs.append({
                    "app": app, "design": name, "engine": stats.engine,
                    "seconds": seconds - sum(probes),
                    "probes": probes,
                })
                results[(app, name)] = stats
        wall = time.perf_counter() - started - sum(probe.samples)
    spans.restore()

    from repro.workloads.suite import get_trace

    events = {app: len(get_trace(app, scale)) for app in apps}
    digests = {}
    for (app, name), stats in results.items():
        digests.setdefault(app, {})[name] = hashlib.sha256(
            stats_payload(stats)
        ).hexdigest()
    out = {
        "wall": wall,
        "runs": runs,
        "events": events,
        "digests": digests,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = {layer: spans.self_seconds(layer) for layer in ATTRIBUTED}
        layers["run_counts"] = {
            tier: spans.count(f"frontend.kernel.{tier}")
            for tier in ("vector", "fast", "general")
        }
        lookups, payloads = time_lookups(harness, registry, apps, scale, ICELAKE)
        layers.update(lookups)
        layers["serialise_us"] = median(payloads) * 1e6
        estimate = metrics.get("harness_simulation_seconds").percentile(99)
        exact = percentile([run["seconds"] for run in runs], 99)
        layers["p99_estimate_ratio"] = estimate / exact
        out["layers"] = layers
        out["spans"] = spans.records
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--apps", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    apps = args.apps.split(",")
    if args.mode == "setup":
        with HostProbe() as probe:
            out = setup(apps, args.scale)
        out["probes"] = probe.samples
    else:
        out = sweep(apps, args.scale, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
