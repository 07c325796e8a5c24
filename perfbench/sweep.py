"""The ``sweep`` workload: every registered design over one default-scale
app, each sweep a fresh process (see ``sweep_worker.py``).

Set-up generates the trace into a hermetic disk cache (imports plus
trace generation, repeated ``SETUPS`` times into fresh
directories); the last directory's trace tier then stays warm while the
result tier is emptied before every sweep.  Sweeps start back to back
until ``seconds`` have passed, at least ``MIN_SWEEPS`` of them.  Every answer's
digest must equal the seed referee's (``digests.json``).

The sweep is compute-bound, and a shared host's speed for it swings by
up to 2x within minutes (other tenants' load), so raw sweep times of the
same code spread by a fifth and more across runs.  The worker
therefore samples the host's speed with a fixed loop every 20 ms while
it sweeps (``sweep_worker.HostProbe``), and the sweep figures are each
design's seconds scaled to a host on which that loop takes
``PROBE_NOMINAL_S`` (``at_nominal_speed``).  A change to the program
moves them in full; a change in the host's load largely cancels.  The raw
wall-clock medians are printed beside them.  ``setup_s`` is scaled the
same way, by the probe samples taken while each set-up ran.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    PER_LAYER, WORK, BenchError, Outcome, child_env,
    dump_spans, fresh_dir, median,
)

WORKER = Path(__file__).with_name("sweep_worker.py")
DIGESTS = Path(__file__).with_name("digests.json")

#: Wall-clock budget of every worker process of one run together.
BUDGET_S = 165
#: Sweeps a run makes even when ``seconds`` pass sooner.
MIN_SWEEPS = 3
#: A sweep set-up takes under a second, so its median is taken over more
#: of them than the serve workloads' ``SETUP_REPEATS`` boots.
SETUPS = 5
#: The host speed sweep figures are reported at: one probe loop
#: (``sweep_worker.PROBE_ROUNDS`` rounds) taking this long.
PROBE_NOMINAL_S = 0.001


def _worker(mode: str, cache: Path, apps: list[str], scale: str,
            deadline: float, traced: bool = False) -> tuple[dict, float]:
    """Run one worker process; returns (its JSON, wall seconds)."""
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), mode, "--apps", ",".join(apps),
             "--scale", scale, "--trace", str(int(traced))],
            env=child_env(REPRO_DISK_CACHE_DIR=str(cache)),
            capture_output=True, text=True, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"sweep ran past its {BUDGET_S} s budget") from None
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise BenchError(f"sweep {mode} worker failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


def check_digests(reports: list[dict], reference: dict) -> set[int]:
    """Indices (over every run of every sweep) whose answer differs from
    the referee's digest."""
    failed = set()
    index = 0
    for report in reports:
        for run in report["runs"]:
            got = report["digests"].get(run["app"], {}).get(run["design"])
            if got != reference.get(run["app"], {}).get(run["design"]):
                failed.add(index)
            index += 1
    return failed


def nominal(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the nominal host speed: times ``PROBE_NOMINAL_S``
    over the mean probe time while they passed."""
    if not probes:
        return seconds
    return seconds * PROBE_NOMINAL_S * len(probes) / sum(probes)


def at_nominal_speed(report: dict) -> list[float]:
    """Each design's seconds in one sweep at the nominal host speed."""
    return [nominal(run["seconds"], run["probes"]) for run in report["runs"]]


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    # The seed is accepted for interface symmetry: the sweep's inputs are
    # the suite's fixed traces, so it leaves them unchanged.
    del seed
    committed = json.loads(DIGESTS.read_text())
    apps = sorted(committed["digests"])
    scale = committed["scale"]
    deadline = time.perf_counter() + BUDGET_S
    work = fresh_dir(WORK / "sweep")
    try:
        setups = []
        for index in range(1 if traced else SETUPS):
            cache = fresh_dir(work / f"cache{index}")
            report, elapsed = _worker("setup", cache, apps, scale, deadline)
            probes = report["probes"]
            setups.append(nominal(elapsed - sum(probes), probes))
        plain, traced_reports = [], []
        started = time.perf_counter()
        while True:
            for results in cache.glob("v*/results"):
                shutil.rmtree(results)
            # A traced run alternates untraced and traced sweeps, so the
            # tracing overhead is measured on the same machine state.
            with_spans = traced and len(traced_reports) < len(plain)
            report, _ = _worker("sweep", cache, apps, scale, deadline,
                                with_spans)
            (traced_reports if with_spans else plain).append(report)
            # Back-to-back sweeps on one host differ by ~10%, so every
            # figure is a median of at least MIN_SWEEPS of them.
            if (time.perf_counter() - started >= seconds
                    and len(plain) + len(traced_reports) >= MIN_SWEEPS):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reports = plain + traced_reports
    outcome = Outcome()
    outcome.attempted = sum(len(r["runs"]) for r in reports)
    outcome.failed = check_digests(reports, committed["digests"])
    if traced:
        dump_spans([s for r in traced_reports for s in r["spans"]], "sweep")
        outcome.metrics = _layers(plain, traced_reports)
        return outcome
    events = [sum(r["events"][run["app"]] for run in r["runs"]) for r in plain]
    sweeps = len(plain)
    # Every sweep runs the designs in registry order.
    scaled = [at_nominal_speed(r) for r in plain]
    # The slowest design's median time: medians per design first, so one
    # slow sweep of one design does not set the tail.
    per_design = [median(times) for times in zip(*scaled)]
    probes = [p for r in plain for run in r["runs"] for p in run["probes"]]
    outcome.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": median(r["rss_mb"] for r in plain),
        "throughput_per_s": median(n / sum(t) for n, t in zip(events, scaled)),
        "p50_ms": median(sum(t) for t in scaled) * 1e3,
        "tail_ms": max(per_design) * 1e3,
    }
    outcome.samples = {
        "setup_s": len(setups), "peak_rss_mb": sweeps,
        "throughput_per_s": sweeps, "p50_ms": sweeps, "tail_ms": sweeps,
    }
    outcome.extra = {
        "sweep_events_per_s": (outcome.metrics["throughput_per_s"], "1/s", sweeps),
        "sweep_events_per_s.wall_clock": (
            median(n / r["wall"] for n, r in zip(events, plain)), "1/s", sweeps,
        ),
        "sweep_ms.wall_clock": (median(r["wall"] for r in plain) * 1e3, "ms", sweeps),
        "host_probe_ms": (median(probes) * 1e3, "ms", len(probes)),
        "run_design_p50_ms": (
            median(t for times in scaled for t in times) * 1e3,
            "ms", sum(len(r["runs"]) for r in plain),
        ),
    }
    return outcome


def _layers(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures: medians over the traced sweeps."""
    def layer(key: str) -> float:
        return median(r["layers"][key] for r in traced)

    def runs(tier: str) -> float:
        return median(r["layers"]["run_counts"][tier] for r in traced)

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    events_per_run = {app: n for r in traced for app, n in r["events"].items()}
    tier_events = {}
    for tier in ("vector", "fast", "general"):
        tier_events[tier] = median(
            sum(events_per_run[run["app"]] for run in r["runs"]
                if run["engine"] == tier)
            for r in traced
        )
    attributed = median(
        sum(v for k, v in r["layers"].items()
            if isinstance(v, float) and k.startswith(("workloads.", "frontend.",
                                                      "experiments.")))
        / r["wall"]
        for r in traced
    )
    metrics.update({
        "workloads.trace_load_s": layer("workloads.trace_load"),
        "workloads.decode_s": layer("workloads.decode"),
        "workloads.prepare_s": layer("workloads.prepare"),
        "frontend.kernel_s.vector": layer("frontend.kernel.vector"),
        "frontend.kernel_s.fast": layer("frontend.kernel.fast"),
        "frontend.kernel_s.general": layer("frontend.kernel.general"),
        "frontend.runs.vector": runs("vector"),
        "frontend.runs.fast": runs("fast"),
        "frontend.runs.general": runs("general"),
        "experiments.publish_s": layer("experiments.publish"),
        "experiments.lookup_memo_us": layer("lookup_memo_us"),
        "experiments.lookup_disk_us": layer("lookup_disk_us"),
        "experiments.result_key_us": layer("result_key_us"),
        "serve.serialise_us": layer("serialise_us"),
        "obs.p99_estimate_ratio": layer("p99_estimate_ratio"),
        "unattributed_share": 1.0 - attributed,
        "trace.overhead_ratio": (
            median(r["wall"] for r in traced) / median(r["wall"] for r in plain)
            - 1.0
        ),
    })
    for tier in ("vector", "general"):
        kernel = metrics[f"frontend.kernel_s.{tier}"]
        metrics[f"frontend.events_per_s.{tier}"] = (
            tier_events[tier] / kernel if kernel else 0.0
        )
    return metrics
