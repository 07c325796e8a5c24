"""Tests for the observability layer (repro.obs) and its integration."""

import json

import pytest

from repro.obs.metrics import (
    SERVE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    percentile_from_buckets,
    use_registry,
)
from repro.obs.aggregate import read_events
from repro.obs.events import (
    EventLog,
    NullEventLog,
    bind_rids,
    emit,
    events_enabled,
    get_event_log,
    span,
    use_event_log,
)


# -- metrics: instruments ----------------------------------------------------


def test_counter_inc_and_value():
    counter = Counter("requests_total")
    counter.inc()
    counter.inc(4)
    assert counter.value() == 5
    assert counter.total() == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_counter_labels_are_distinct_series():
    counter = Counter("resteers_total")
    counter.inc(3, stage="decode")
    counter.inc(7, stage="execute")
    counter.inc(1, stage="decode", cause="btb")
    assert counter.value(stage="decode") == 3
    assert counter.value(stage="execute") == 7
    assert counter.value(stage="decode", cause="btb") == 1
    assert counter.total() == 11
    # Label order must not matter.
    counter.inc(1, cause="btb", stage="decode")
    assert counter.value(stage="decode", cause="btb") == 2


def test_gauge_set_overwrites():
    gauge = Gauge("occupancy")
    gauge.set(10, table="page")
    gauge.set(12, table="page")
    gauge.add(3, table="page")
    assert gauge.value(table="page") == 15
    assert gauge.value(table="region") == 0


def test_histogram_tracks_distribution():
    hist = Histogram("seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.count() == 4
    assert hist.sum() == pytest.approx(55.55)
    assert hist.mean() == pytest.approx(55.55 / 4)
    (series,) = hist.to_dict()["series"]
    assert series["min"] == 0.05
    assert series["max"] == 50.0
    assert series["bucket_counts"] == [1, 1, 1, 1]  # one in the overflow


def test_histogram_labels():
    hist = Histogram("worker_seconds")
    hist.observe(1.0, worker=1)
    hist.observe(2.0, worker=2)
    assert hist.count(worker=1) == 1
    assert hist.count(worker=2) == 1
    assert hist.count() == 0


# -- metrics: percentile estimation ------------------------------------------


def test_percentile_from_buckets_interpolates_within_bucket():
    buckets = (1.0, 2.0, 4.0)
    counts = [2, 2, 0, 0]  # four observations, none past 2.0
    # rank 2 lands exactly at the end of the first bucket (lower bound 0).
    assert percentile_from_buckets(buckets, counts, 50) == pytest.approx(1.0)
    # rank 3 is halfway through the second bucket: 1.0 + 0.5 * (2.0 - 1.0).
    assert percentile_from_buckets(buckets, counts, 75) == pytest.approx(1.5)


def test_percentile_from_buckets_overflow_and_clamping():
    # Everything in the unbounded overflow bucket: report the observed
    # max when known, else the last finite bound.
    assert percentile_from_buckets((1.0,), [0, 3], 99, maximum=7.5) == 7.5
    assert percentile_from_buckets((1.0,), [0, 3], 99) == 1.0
    # The uniform-within-bucket assumption can undershoot the observed
    # minimum on tiny samples; the clamp repairs that.
    assert percentile_from_buckets((10.0,), [4, 0], 10, minimum=2.0) == 2.0
    # Degenerate inputs.
    assert percentile_from_buckets((1.0,), [0, 0], 50) == 0.0
    with pytest.raises(ValueError):
        percentile_from_buckets((1.0,), [1, 0], 101)


def test_histogram_percentile_per_series_and_merged():
    hist = Histogram("seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value, design="a")
    hist.observe(50.0, design="b")
    # Series "a": rank 1.5 of 3 is halfway through the (0.1, 1.0] bucket.
    assert hist.percentile(50, design="a") == pytest.approx(0.55)
    # No labels with several series recorded: cross-series merge. The
    # p99 rank lands in the overflow bucket, so it reports the max hull.
    assert hist.percentile(99) == pytest.approx(50.0)
    # Unknown label set estimates 0, not a crash.
    assert hist.percentile(50, design="nope") == 0.0
    quantiles = hist.percentiles(design="a")
    assert set(quantiles) == {"p50", "p95", "p99"}
    # Snapshot series carry the percentile estimates for reports.
    series = {
        tuple(sorted(entry["labels"].items())): entry
        for entry in hist.to_dict()["series"]
    }
    assert series[(("design", "a"),)]["p50"] == pytest.approx(0.55)


def test_registry_histogram_bucket_override_semantics():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
    # Same buckets: plain idempotent get.
    assert registry.histogram("lat_seconds", buckets=(1.0, 2.0)) is hist
    # Different buckets before any observation: adopted in place.
    assert registry.histogram("lat_seconds", buckets=SERVE_BUCKETS) is hist
    assert hist.buckets == tuple(sorted(SERVE_BUCKETS))
    hist.observe(0.01)
    # Different buckets after data: counts can't be redistributed.
    with pytest.raises(ValueError):
        registry.histogram("lat_seconds", buckets=(5.0,))
    # Omitting buckets never re-buckets.
    assert registry.histogram("lat_seconds") is hist


def test_registry_prometheus_text_exposition():
    registry = MetricsRegistry()
    registry.counter("requests_total", help="All requests").inc(3, design="a")
    registry.gauge("inflight").set(2)
    hist = registry.histogram("wait_seconds", buckets=(0.1, 1.0))
    hist.observe(0.05, design="a")
    hist.observe(5.0, design="a")
    text = registry.to_prometheus_text()
    assert "# HELP requests_total All requests" in text
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{design="a"} 3' in text
    assert "# TYPE inflight gauge" in text
    assert "inflight 2" in text
    # Histogram buckets are cumulative and end with +Inf/_sum/_count.
    assert 'wait_seconds_bucket{design="a",le="0.1"} 1' in text
    assert 'wait_seconds_bucket{design="a",le="1"} 1' in text
    assert 'wait_seconds_bucket{design="a",le="+Inf"} 2' in text
    assert 'wait_seconds_sum{design="a"} 5.05' in text
    assert 'wait_seconds_count{design="a"} 2' in text
    assert text.endswith("\n")
    assert NullRegistry().to_prometheus_text() == ""


# -- metrics: registry -------------------------------------------------------


def test_registry_get_or_create_idempotent():
    registry = MetricsRegistry()
    first = registry.counter("hits_total")
    second = registry.counter("hits_total")
    assert first is second


def test_registry_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_registry_publish_routes_totals_to_counters():
    registry = MetricsRegistry()
    registry.publish({"hits_total": 5, "occupancy": 7}, design="pdede")
    registry.publish({"hits_total": 3, "occupancy": 9}, design="pdede")
    assert registry.counter("hits_total").value(design="pdede") == 8
    assert registry.gauge("occupancy").value(design="pdede") == 9


def test_registry_to_dict_and_dump(tmp_path):
    registry = MetricsRegistry()
    registry.counter("hits_total", "cache hits").inc(2, app="a")
    registry.histogram("seconds").observe(0.25)
    snapshot = registry.to_dict()
    assert snapshot["hits_total"]["kind"] == "counter"
    assert snapshot["hits_total"]["help"] == "cache hits"
    assert snapshot["hits_total"]["series"] == [
        {"labels": {"app": "a"}, "value": 2}
    ]
    path = tmp_path / "metrics.json"
    registry.dump(str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(snapshot)
    )


# -- metrics: disabled mode --------------------------------------------------


def test_default_registry_is_null_and_records_nothing():
    registry = get_registry()
    assert not metrics_enabled()
    assert isinstance(registry, NullRegistry)
    instrument = registry.counter("anything_total")
    instrument.inc(5, label="x")
    instrument.observe(1.0)
    instrument.set(2.0)
    assert instrument.value() == 0
    assert registry.to_dict() == {}
    assert registry.names() == []


def test_enable_disable_metrics_roundtrip():
    registry = enable_metrics()
    try:
        assert metrics_enabled()
        assert get_registry() is registry
    finally:
        disable_metrics()
    assert not metrics_enabled()


def test_use_registry_restores_previous():
    scoped = MetricsRegistry()
    with use_registry(scoped) as active:
        assert active is scoped
        assert get_registry() is scoped
    assert not metrics_enabled()


# -- spans -------------------------------------------------------------------


def test_span_nesting_parent_depth():
    log = EventLog()
    with use_event_log(log):
        with span("outer", phase="x"):
            with span("inner"):
                pass
            with span("sibling"):
                pass
    records = log.recent()
    # One record per span, emitted as each closes.
    assert [r["event"] for r in records] == ["inner", "sibling", "outer"]
    inner, sibling, outer = records
    assert outer["parent"] is None and outer["depth"] == 0
    assert inner["parent"] == sibling["parent"] == outer["span"]
    assert inner["depth"] == sibling["depth"] == 1
    assert len({inner["span"], sibling["span"], outer["span"]}) == 3
    assert outer["phase"] == "x"
    assert outer["seconds"] >= inner["seconds"] >= 0.0


def test_span_annotate_and_event():
    log = EventLog()
    with use_event_log(log), bind_rids("r1"):
        with span("run", app="a") as run:
            run["apps"] = 4
            emit("cache-hit", app="x")
    hit, record = log.recent()
    # A hop emitted inside a span is its own record, closed first.
    assert hit["event"] == "cache-hit" and "span" not in hit
    assert record["event"] == "run"
    assert record["app"] == "a" and record["apps"] == 4
    # Both carry the bound correlation id.
    assert hit["rid"] == record["rid"] == "r1"


def test_span_records_error_and_reraises():
    log = EventLog()
    with use_event_log(log):
        with pytest.raises(KeyError):
            with span("run"):
                raise KeyError("boom")
        with span("after"):
            pass
    failed, after = log.recent()
    assert failed["error"] == "KeyError"
    # The failed span no longer counts as open.
    assert after["parent"] is None and "error" not in after


def test_on_close_callback_fires_in_completion_order():
    log = EventLog()
    closed = []
    log.on_record = lambda record: closed.append(record["event"])
    with use_event_log(log):
        with span("outer"):
            with span("inner"):
                pass
    assert closed == ["inner", "outer"]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    log = EventLog(sink_path=str(path))
    with use_event_log(log):
        with span("harness-run", app="a", design="d"):
            with span("trace-gen", app="a"):
                pass
    log.close()
    records = read_events(str(path))
    assert records == log.recent()
    trace_gen, run = records
    assert run["event"] == "harness-run"
    assert trace_gen["parent"] == run["span"]
    assert trace_gen["depth"] == 1


def test_tracer_concurrent_asyncio_tasks_keep_parentage(tmp_path):
    """Interleaved asyncio tasks must not corrupt span parentage.

    Each task inherits the spawner's context snapshot, so its spans
    parent under the root that was open when it was created -- never
    under a sibling task's span -- and the JSONL sink stays one
    well-formed record per line."""
    import asyncio

    async def worker(n: int) -> None:
        with span(f"task-{n}", index=n):
            await asyncio.sleep(0)  # force interleaving with siblings
            with span(f"task-{n}-inner"):
                await asyncio.sleep(0)

    async def main():
        with span("root"):
            await asyncio.gather(*(worker(n) for n in range(8)))

    path = tmp_path / "spans.jsonl"
    log = EventLog(sink_path=str(path))
    with use_event_log(log):
        asyncio.run(main())
    log.close()
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines]  # every line parses
    assert len(records) == 1 + 2 * 8
    by_name = {record["event"]: record for record in records}
    root = by_name["root"]
    assert root["parent"] is None
    for n in range(8):
        outer = by_name[f"task-{n}"]
        inner = by_name[f"task-{n}-inner"]
        assert outer["parent"] == root["span"], outer
        assert outer["depth"] == 1 and outer["index"] == n
        assert inner["parent"] == outer["span"], inner
        assert inner["depth"] == 2


@pytest.fixture
def traced_memory():
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


def test_trace_memory_records_peaks(traced_memory):
    log = EventLog()
    with use_event_log(log):
        with span("alloc"):
            _ = [0] * 50_000
        del _
    (record,) = log.recent()
    assert record["memory_peak_kib"] > 100  # 50k pointers >> 100 KiB


def test_trace_memory_parent_peak_covers_children_and_own_allocations(
    traced_memory,
):
    """Opening a child resets the process-wide peak; the parent must
    still report what it reached before the child opened, and at least
    every child's peak."""
    log = EventLog()
    with use_event_log(log):
        with span("outer"):
            block = bytearray(1_600_000)
            del block
            with span("empty-child"):
                pass
            with span("alloc-child"):
                block = bytearray(800_000)
                del block
    empty, alloc, outer = log.recent()
    assert alloc["memory_peak_kib"] > 700
    assert outer["memory_peak_kib"] > 1500
    assert outer["memory_peak_kib"] >= max(
        empty["memory_peak_kib"], alloc["memory_peak_kib"]
    )


def test_null_tracer_is_default_and_free():
    """Spans under the default null log record nothing and leave no
    parentage behind."""
    log = get_event_log()
    assert not events_enabled()
    assert isinstance(log, NullEventLog)
    with span("anything", app="x") as attrs:
        attrs["ok"] = True
        emit("nothing")
        scoped = EventLog()
        with use_event_log(scoped):
            with span("inside"):
                pass
    assert log.recent() == []
    (inside,) = scoped.recent()
    assert inside["parent"] is None and inside["depth"] == 0


# -- stats serialisation (satellite) ----------------------------------------


def test_frontend_stats_to_dict_includes_derived():
    from repro.frontend.stats import FrontendStats

    stats = FrontendStats(instructions=1000, cycles=500.0, branches=10,
                          taken_branches=6, btb_misses=3)
    data = stats.to_dict()
    assert data["instructions"] == 1000
    assert data["ipc"] == 2.0
    assert data["btb_mpki"] == 3.0
    assert data["btb_miss_rate"] == 0.5
    assert data["taken_branch_fraction"] == 0.6
    raw = stats.to_dict(derived=False)
    assert "ipc" not in raw
    json.dumps(data)  # must be JSON-serialisable


def test_frontend_stats_empty_guards():
    from repro.frontend.stats import FrontendStats

    empty = FrontendStats()
    data = empty.to_dict()
    for name in FrontendStats._DERIVED:
        assert data[name] == 0.0


# -- harness cache telemetry (satellite) -------------------------------------


def test_cache_info_counts_hits_and_misses():
    from repro.experiments.designs import baseline_design
    from repro.experiments.harness import cache_info, clear_cache, run_design

    clear_cache()
    design = baseline_design(entries=256, key="obs-cache-probe")
    run_design("server_oltp_00", design, scale="tiny")
    run_design("server_oltp_00", design, scale="tiny")
    info = cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 1
    assert info["size"] == 1
    assert info["hit_rate"] == 0.5
    assert info["enabled"] is True
    clear_cache()
    assert cache_info() == {
        "hits": 0, "misses": 0, "size": 0, "hit_rate": 0.0, "enabled": True,
    }


def test_result_cache_env_knob_disables_memoisation(monkeypatch):
    from repro.experiments.designs import baseline_design
    from repro.experiments.harness import cache_info, clear_cache, run_design

    clear_cache()
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    design = baseline_design(entries=256, key="obs-cache-probe")
    first = run_design("server_oltp_00", design, scale="tiny")
    second = run_design("server_oltp_00", design, scale="tiny")
    assert first is not second
    info = cache_info()
    assert info["misses"] == 2
    assert info["size"] == 0
    assert info["enabled"] is False
    clear_cache()


def test_slowest_runs_ranked():
    from repro.experiments.designs import baseline_design
    from repro.experiments.harness import clear_cache, run_design, slowest_runs

    clear_cache()
    design = baseline_design(entries=256, key="obs-cache-probe")
    run_design("server_oltp_00", design, scale="tiny")
    ranked = slowest_runs(3)
    assert ranked[0][0] == "server_oltp_00"
    assert ranked[0][1] == "obs-cache-probe"
    assert ranked[0][2] > 0.0
    clear_cache()


# -- integration: a simulate run emits the expected metrics ------------------


EXPECTED_PDEDE_METRICS = (
    "frontend_ipc",
    "frontend_btb_mpki",
    "frontend_resteers_total",
    "frontend_stall_cycles_total",
    "btb_misses_total",
    "btb_occupancy",
    "btbm_occupancy",
    "btbm_delta_entries",
    "pdede_delta_hits_total",
    "pdede_pointer_hits_total",
    "page_btb_occupancy",
    "page_btb_dedup_hits_total",
    "region_btb_occupancy",
    "icache_misses_total",
    "ras_pushes_total",
    "harness_result_cache_total",
    "harness_simulation_seconds",
)


def test_simulate_cli_emits_metrics_and_trace(tmp_path):
    from repro.cli import main
    from repro.experiments.harness import clear_cache

    clear_cache()  # guarantee a fresh simulation so metrics are published
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.jsonl"
    code = main([
        "--scale", "tiny", "simulate",
        "--app", "server_oltp_00", "--design", "pdede-default",
        "--metrics-out", str(metrics_path),
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    snapshot = json.loads(metrics_path.read_text())
    for name in EXPECTED_PDEDE_METRICS:
        assert name in snapshot, name
    # Every frontend series is labelled with the app and design.
    (ipc_series,) = snapshot["frontend_ipc"]["series"]
    assert ipc_series["labels"] == {
        "app": "server_oltp_00", "design": "PDede[default]",
    }
    assert ipc_series["value"] > 0
    records = read_events(str(trace_path))
    (run,) = [r for r in records if r["event"] == "harness-run"]
    assert run["app"] == "server_oltp_00"
    assert run["engine"] in ("vector", "general")
    nested = {r["event"] for r in records if r.get("parent") == run["span"]}
    assert nested == {"trace-gen", "warmup+measure"}
    clear_cache()


def test_simulate_cli_progress_streams_top_two_span_levels(tmp_path, capsys):
    from repro.cli import main
    from repro.experiments.harness import clear_cache

    clear_cache()
    trace_path = tmp_path / "t.jsonl"
    trace_path.write_text("stale\n")
    assert main([
        "--scale", "tiny", "simulate", "server_oltp_00", "baseline",
        "--progress", "--trace-out", str(trace_path),
    ]) == 0
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("  [")]
    assert [line.split()[2] for line in lines] == [
        "trace-gen", "warmup+measure", "harness-run",
    ]
    assert "engine=" in lines[-1]
    # --trace-out replaces an existing file rather than appending to it.
    assert "stale" not in trace_path.read_text()
    assert "harness-run" in {r["event"] for r in read_events(str(trace_path))}
    clear_cache()


def test_simulate_cli_positional_and_flag_mix(tmp_path, capsys):
    from repro.cli import main

    assert main(["--scale", "tiny", "simulate", "server_oltp_00",
                 "--design", "baseline"]) == 0
    assert "IPC" in capsys.readouterr().out
    assert main(["--scale", "tiny", "simulate"]) == 2
    assert "needs an application" in capsys.readouterr().err


def test_cli_epilog_lists_registries():
    from repro.cli import build_parser

    epilog = build_parser().epilog
    assert "pdede-multi-entry" in epilog
    assert "fig10" in epilog
    assert "ablation-stale" in epilog


def test_span_flags_on_batch_commands_only():
    from repro.cli import build_parser

    parser = build_parser()
    span_flags = ["--trace-out", "t.jsonl", "--progress", "--trace-memory"]
    for command in (["simulate", "a", "d"], ["experiment", "fig10"], ["report"]):
        args = parser.parse_args(command + ["--metrics-out", "m.json"] + span_flags)
        assert args.trace_out == "t.jsonl" and args.progress and args.trace_memory
    assert parser.parse_args(["serve", "--metrics-out", "m.json"]).metrics_out
    for flag in (["--trace-out", "t.jsonl"], ["--progress"], ["--trace-memory"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["serve"] + flag)


def test_baseline_metrics_surface():
    from repro.btb.baseline import BaselineBTB
    from repro.branch.types import BranchEvent, BranchKind

    btb = BaselineBTB(entries=64, ways=4)
    event = BranchEvent(pc=0x1000, kind=BranchKind.UNCOND_DIRECT,
                        taken=True, target=0x2000, instr_gap=3)
    btb.observe(event)
    btb.observe(event)
    data = btb.metrics()
    assert data["btb_lookups_total"] == 2
    assert data["btb_misses_total"] == 1
    assert data["btb_hits_total"] == 1
    assert data["btb_occupancy"] == 1
    assert data["btb_entries"] == 64
    assert btb.stats.to_dict()["misses_by_kind"] == {"UNCOND_DIRECT": 1}
