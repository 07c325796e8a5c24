"""Suite runner over the result-cache chain.

Every figure/table of the paper is (app x design) simulations plus an
aggregation.  Simulations are deterministic, so results are cached per
``(trace name, scale, design key, core-params, warmup)`` in the
memo -> disk -> store chain of :mod:`repro.experiments.results`:
benchmark files for different figures share the underlying runs, and
repeated pytest-benchmark rounds cost one simulation.
:func:`simulate` is the one fresh-compute path -- the serving layer's
cold jobs run through it too -- and records the run telemetry.

``run_suite(..., workers=N)`` fans the per-application simulations out
through the shard scheduler
(:mod:`repro.experiments.scheduler`) -- a work-stealing fork pool with
per-task timeouts, bounded retries, and disk-cache resume -- useful at
``REPRO_SCALE=full`` where a single design sweep is 102 simulations.
A group whose shards exhaust their retries is recorded as a structured
failure (``scheduler.drain_failures``) and falls back to an inline
serial run here, so a flaky worker degrades a sweep instead of
aborting it.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

from repro.frontend.params import CoreParams, ICELAKE
from repro.frontend.simulator import FrontendSimulator
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.workloads.suite import build_suite, current_scale, get_trace
from repro.workloads.trace import Trace
from repro.experiments import results, scheduler
from repro.experiments.designs import Design
from repro.experiments.results import ResultRef

#: Memo-cache telemetry of :func:`run_design` lookups (cache_info).
_CACHE_HITS = 0
_CACHE_MISSES = 0

#: (trace name, design key) -> wall seconds of the last fresh simulation;
#: the report's telemetry appendix ranks these.
_RUN_SECONDS: dict[tuple[str, str], float] = {}

#: (trace name, design key) -> (engine tier, events/sec) of the last
#: fresh simulation; the report's telemetry appendix aggregates these.
_RUN_ENGINES: dict[tuple[str, str], tuple[str, float]] = {}

#: Telemetry is written by serve worker threads while the event loop
#: reads ``cache_info`` on ``/v1/stats`` (REP104).
_CACHE_LOCK = threading.Lock()

cache_enabled = results.enabled


def cache_info() -> dict:
    """Memo-cache telemetry: hits / misses / size / hit rate."""
    with _CACHE_LOCK:
        hits, misses = _CACHE_HITS, _CACHE_MISSES
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "size": results.memo_size(),
        "hit_rate": hits / lookups if lookups else 0.0,
        "enabled": cache_enabled(),
    }


def clear_cache() -> None:
    """Drop all memoised simulation results and telemetry (tests use this)."""
    global _CACHE_HITS, _CACHE_MISSES
    results.clear()
    with _CACHE_LOCK:
        _RUN_SECONDS.clear()
        _RUN_ENGINES.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def slowest_runs(n: int = 5) -> list[tuple[str, str, float]]:
    """The ``n`` slowest fresh simulations seen so far, slowest first."""
    with _CACHE_LOCK:
        ranked = sorted(_RUN_SECONDS.items(), key=lambda item: -item[1])
    return [(app, design, seconds) for (app, design), seconds in ranked[:n]]


def engine_mix() -> dict[str, dict]:
    """Fresh simulations grouped by engine tier, with median throughput.

    Keyed by engine (``vector`` / ``general``); each value
    carries the run count and the median raw events/sec the tier
    sustained -- the report's telemetry appendix renders this so a
    design accidentally falling off the vector path is visible.
    """
    with _CACHE_LOCK:
        rows = list(_RUN_ENGINES.values())
    mix: dict[str, list[float]] = {}
    for engine, eps in rows:
        mix.setdefault(engine, []).append(eps)
    out = {}
    for engine, rates in sorted(mix.items()):
        rates.sort()
        out[engine] = {
            "runs": len(rates),
            "events_per_sec_median": rates[len(rates) // 2],
        }
    return out


def simulate(ref: ResultRef, design: Design, trace: Trace | None = None) -> FrontendStats:
    """One fresh simulation of ``ref`` with its run telemetry.

    Touches no cache tier -- callers publish through
    :func:`repro.experiments.results.put`.  ``trace`` defaults to the
    suite member ``ref.trace_name``; inline-spec callers pass theirs.
    """
    app, scale = ref.trace_name, ref.scale
    started = time.perf_counter()
    with obs_events.span(
        "harness-run", app=app, design=design.key, scale=scale
    ) as run:
        if trace is None:
            with obs_events.span("trace-gen", app=app, scale=scale):
                trace = get_trace(app, scale)
        btb, simulator_kwargs = design.build()
        simulator = FrontendSimulator(btb, params=ref.params, **simulator_kwargs)
        with obs_events.span("warmup+measure", app=app, design=design.key):
            stats = simulator.run(trace, warmup_fraction=ref.warmup_fraction)
        engine = getattr(simulator, "last_engine", "none")
        events_per_sec = float(getattr(stats, "events_per_sec", 0.0))
        run["engine"] = engine
        run["events_per_sec"] = round(events_per_sec)
    elapsed = time.perf_counter() - started
    with _CACHE_LOCK:
        _RUN_SECONDS[(app, design.key)] = elapsed
        _RUN_ENGINES[(app, design.key)] = (engine, events_per_sec)
    registry = get_registry()
    registry.histogram(
        "harness_simulation_seconds", "wall seconds per fresh simulation"
    ).observe(elapsed, design=design.key, scale=scale)
    registry.counter(
        "harness_engine_runs_total", "fresh simulations by engine tier"
    ).inc(engine=engine)
    return stats


def run_design(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
) -> FrontendStats:
    """Simulate one (app, design) pair, cached through the result chain."""
    global _CACHE_HITS, _CACHE_MISSES
    ref = ResultRef(trace_name, scale or current_scale(), design.key, params, warmup_fraction)
    stats, tier = results.get(ref)
    # A disk or store hit is still a memo miss for cache_info().
    with _CACHE_LOCK:
        if tier == "memo":
            _CACHE_HITS += 1
        else:
            _CACHE_MISSES += 1
    if stats is None:
        stats = simulate(ref, design)
        results.put(ref, stats)
    return stats


def run_one(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
) -> FrontendStats:
    """Simulate one (app, design) pair -- the single-request entry point.

    Alias of :func:`run_design`; the serving layer's tests byte-compare
    service responses against this function's results.
    """
    return run_design(
        trace_name,
        design,
        params=params,
        warmup_fraction=warmup_fraction,
        scale=scale,
    )


def lookup_cached(
    trace_name: str,
    design: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
) -> tuple[FrontendStats | None, str]:
    """Peek the result chain without simulating.

    Returns ``(stats, outcome)`` with outcome ``"memo"``, ``"disk"``,
    ``"store"`` or ``"miss"`` (stats ``None``); see
    :func:`repro.experiments.results.get`.  Does not touch
    :func:`cache_info`, which counts :func:`run_design` lookups only.
    """
    return results.get(
        ResultRef(trace_name, scale or current_scale(), design.key, params, warmup_fraction)
    )


def adopt_result(
    trace_name: str,
    design: Design,
    stats: FrontendStats,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    publish: bool = False,
) -> None:
    """Install an externally-computed result in the memo so later
    :func:`run_design` and :func:`lookup_cached` calls memo-hit; with
    ``publish=True`` it goes to every tier of the chain (idempotent:
    values are content-addressed)."""
    ref = ResultRef(trace_name, scale or current_scale(), design.key, params, warmup_fraction)
    if publish:
        results.put(ref, stats)
    else:
        results.remember(ref, stats)


def result_store_key(
    trace_name: str,
    design_key: str,
    params: CoreParams,
    warmup_fraction: float,
    scale: str,
) -> str:
    """The content hash a suite (app, design) result is shared under --
    one key for the disk tier, the shared store and the serving layer's
    single-flight leases, so a value published anywhere is a hit
    everywhere."""
    return ResultRef(trace_name, scale, design_key, params, warmup_fraction).key


@dataclass
class SuiteResult:
    """Results of one design across the suite, against a baseline design."""

    design_key: str
    baseline_key: str
    per_app: dict[str, FrontendStats] = field(default_factory=dict)
    baseline_per_app: dict[str, FrontendStats] = field(default_factory=dict)
    categories: dict[str, str] = field(default_factory=dict)

    # -- aggregates --------------------------------------------------------

    def speedups(self) -> dict[str, float]:
        return {
            name: stats.speedup_over(self.baseline_per_app[name])
            for name, stats in self.per_app.items()
        }

    def mpki_reductions(self) -> dict[str, float]:
        return {
            name: stats.mpki_reduction_vs(self.baseline_per_app[name])
            for name, stats in self.per_app.items()
        }

    def mean_speedup(self) -> float:
        """Geometric-mean IPC speedup over the suite (1.0 = no change)."""
        values = list(self.speedups().values())
        if not values:
            return 1.0
        return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))

    def mean_mpki_reduction(self) -> float:
        """Arithmetic-mean fractional BTB-MPKI reduction."""
        values = list(self.mpki_reductions().values())
        if not values:
            return 0.0
        return sum(values) / len(values)

    def category_mean_speedup(self) -> dict[str, float]:
        by_category: dict[str, list[float]] = {}
        for name, speedup in self.speedups().items():
            by_category.setdefault(self.categories.get(name, "?"), []).append(speedup)
        return {
            category: math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))
            for category, vals in by_category.items()
            if vals
        }

    def category_mean_mpki_reduction(self) -> dict[str, float]:
        by_category: dict[str, list[float]] = {}
        for name, reduction in self.mpki_reductions().items():
            by_category.setdefault(self.categories.get(name, "?"), []).append(reduction)
        return {
            category: sum(vals) / len(vals)
            for category, vals in by_category.items()
            if vals
        }


def run_suite(
    design: Design,
    baseline: Design,
    params: CoreParams = ICELAKE,
    warmup_fraction: float = 0.3,
    scale: str | None = None,
    baseline_params: CoreParams | None = None,
    workers: int | None = None,
    shards: int | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> SuiteResult:
    """Run ``design`` and ``baseline`` across the active suite.

    Args:
        workers: fan the simulations out through the shard scheduler on
            this many forked worker processes (default: the active
            scheduler config, normally serial).
        shards: split each trace's measured region into this many
            scheduler tasks; per-shard stats are merged exactly, so the
            result is bit-identical to an unsharded run.
        task_timeout: wall-seconds budget per scheduler task.
        max_retries: retry budget per scheduler task.
    """
    scale = scale or current_scale()
    config = scheduler.resolve_config(
        workers=workers,
        shards=shards,
        task_timeout=task_timeout,
        max_retries=max_retries,
    )
    use_scheduler = (
        (config.workers > 1 or config.shards > 1)
        and hasattr(os, "fork")
        and cache_enabled()
    )
    if use_scheduler:
        _prefill_cache_scheduled(
            [design, baseline],
            params={design.key: params, baseline.key: baseline_params or params},
            warmup_fraction=warmup_fraction,
            scale=scale,
            config=config,
        )
    result = SuiteResult(design_key=design.key, baseline_key=baseline.key)
    for spec in build_suite(scale):
        result.categories[spec.name] = spec.category
        result.per_app[spec.name] = run_design(
            spec.name, design, params=params, warmup_fraction=warmup_fraction, scale=scale
        )
        result.baseline_per_app[spec.name] = run_design(
            spec.name,
            baseline,
            params=baseline_params or params,
            warmup_fraction=warmup_fraction,
            scale=scale,
        )
    return result


def _prefill_cache_scheduled(
    designs: list[Design],
    params: dict[str, CoreParams],
    warmup_fraction: float,
    scale: str,
    config: "scheduler.SchedulerConfig",
) -> None:
    """Populate the result chain for (suite x designs) via the scheduler.

    Pairs the chain already holds are skipped.  Groups that come back
    merged are published to the chain by ``run_grid`` itself; groups
    with a failed shard are simply *absent* -- the serial loop in
    ``run_suite`` re-runs them inline, and the failure stays on record
    for the report's appendix.
    """
    skip = {
        (spec.name, design.key)
        for design in designs
        for spec in build_suite(scale)
        if results.get(
            ResultRef(spec.name, scale, design.key, params[design.key], warmup_fraction)
        )[0] is not None
    }
    report = scheduler.run_grid(
        designs,
        params_by_design=params,
        warmup_fraction=warmup_fraction,
        scale=scale,
        config=config,
        skip=skip,
    )
    with _CACHE_LOCK:
        for group_key in report.merged:
            _RUN_SECONDS[group_key] = report.group_seconds.get(group_key, 0.0)


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Render an ASCII table (the benches print these)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percent(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"
