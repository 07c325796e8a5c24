"""The ``serve-warm`` and ``serve-mixed`` workloads.

The service runs as its own process, exactly as shipped
(``python -m repro --scale tiny serve``; only the port and a hermetic
disk-cache directory are set, plus ``--metrics-out`` in the traced run
so ``/metrics`` records).  This process is the load generator: one
thread, one asyncio loop, at most ``nproc`` keep-alive connections.

Set-up boots the service and pre-warms every (app, design) pair of the
tiny suite through it (4 x 12 = 48 fresh simulations).  Then:

``serve-warm``
    closed loop: each connection sends its next request as soon as the
    last one is answered, drawn uniformly over the 48 warm pairs.
``serve-mixed``
    open loop at ``MIXED_RATE`` requests/s: a seeded mix of warm pair
    hits and fresh inline ``WorkloadSpec`` jobs (one in ``COLD_EVERY``,
    unique seeds, ``INLINE_EVENTS`` events); a request's latency counts
    from the time it was due.

Every answer is checked: warm answers byte for byte against the
pre-warm answer for their pair (and ``server_oltp_00`` pre-warm
answers against the golden digests in ``tests/fixtures``), inline
answers by re-simulating a seeded sample in this process afterwards.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    PER_LAYER, ROOT, SETUP_REPEATS, WORK, BenchError, Outcome, beyond,
    child_env, dump_spans, free_port, fresh_dir, median, nproc, peak_rss_mb,
    percentile, stop, time_lookups,
)

SCALE = "tiny"
GOLDEN = ROOT / "tests" / "fixtures" / "golden_digests.json"

#: serve-mixed offered rate: ~40% of its closed-loop capacity (~50 rps
#: on a 2-core host).
MIXED_RATE = 20.0
#: One serve-mixed request in every ``COLD_EVERY`` is a fresh inline job.
COLD_EVERY = 5
#: Inline spec size: ~2k events on a small static footprint.
INLINE_EVENTS = 2000
#: Inline answers re-simulated in this process after the timed phase.
RESIMULATE = 10
#: Wall-clock budget of all boots and timed phases of one run.
BUDGET_S = 150


# -- HTTP over one keep-alive connection --------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b""):
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("service closed the connection")
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(int(headers.get("content-length", 0)))
        return int(status_line.split()[1]), headers, payload

    async def get_json(self, path: str):
        status, _, payload = await self.request("GET", path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        self.writer.close()


# -- the service process ------------------------------------------------------


class Server:
    """``python -m repro --scale tiny serve`` in its own process."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.cache = fresh_dir(work / "cache")
        self.log = work / "serve.log"
        self.metrics_out = work / "metrics.json" if traced else None
        self.port = free_port()
        self.process: subprocess.Popen | None = None

    async def start(self) -> None:
        command = [sys.executable, "-m", "repro", "--scale", SCALE, "serve",
                   "--port", str(self.port)]
        if self.metrics_out is not None:
            command += ["--metrics-out", str(self.metrics_out)]
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=self.log.parent, stdout=log, stderr=log,
                env=child_env(REPRO_DISK_CACHE_DIR=str(self.cache)),
            )
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchError(f"service exited at boot:\n{self.log.read_text()}")
            try:
                conn = await Connection.open(self.port)
            except OSError:
                await asyncio.sleep(0.01)
                continue
            try:
                health = await conn.get_json("/healthz")
            finally:
                conn.close()
            if health.get("status") == "ok":
                return
        raise BenchError("service did not become healthy within 60 s")

    def stop(self) -> bool:
        """Drain the service; True when it exited cleanly."""
        return self.process is None or stop(self.process) == 0


# -- requests and their records ----------------------------------------------


@dataclass
class Record:
    """One request: what was asked, when, and what came back."""

    kind: str  # "warm" | "cold"
    key: tuple
    body: bytes
    spec: dict | None = None
    due: float = 0.0
    reached: float = 0.0
    acquired: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: dict = field(default_factory=dict)
    answer: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due

    def hop(self, name: str) -> float:
        return float(self.headers.get(f"x-repro-{name}-seconds", 0.0))

    @property
    def http(self) -> float:
        """Client round trip minus the three server-side hops."""
        return (self.done - self.sent) - sum(
            self.hop(name) for name in ("batch-wait", "queue", "simulate")
        )


async def send(conn: Connection, record: Record) -> Record:
    record.sent = time.perf_counter()
    try:
        record.status, record.headers, record.answer = await conn.request(
            "POST", "/v1/simulate", record.body
        )
    except (OSError, asyncio.IncompleteReadError) as error:
        record.status, record.answer = 0, str(error).encode()
    record.done = time.perf_counter()
    return record


def warm_record(pair: tuple[str, str]) -> Record:
    body = json.dumps({"app": pair[0], "design": pair[1]}).encode()
    return Record("warm", pair, body)


def cold_record(seed: int, index: int, design: str) -> Record:
    from repro.workloads.spec import WorkloadSpec

    spec = dataclasses.asdict(WorkloadSpec(
        name=f"perfbench_{seed}_{index}", category="Server",
        seed=seed * 100_003 + index, n_events=INLINE_EVENTS,
        n_functions=200, hot_functions_per_phase=50, phase_calls=200,
    ))
    body = json.dumps({"spec": spec, "design": design}).encode()
    return Record("cold", (spec["name"], design), body, spec=spec)


def mixed_schedule(seed: int, seconds: float, pairs: list, designs: list) -> list:
    """The serve-mixed request list: one inline job at a seeded position
    in every block of ``COLD_EVERY`` requests, their designs balanced
    over the registry.  Stratifying keeps how closely cold jobs cluster
    (and so how long warm ones wait behind them) alike across seeds."""
    rng = random.Random(seed)
    total = max(1, round(MIXED_RATE * seconds))
    cold_slots = {
        block + rng.randrange(min(COLD_EVERY, total - block))
        for block in range(0, total, COLD_EVERY)
    }
    cold_designs = [designs[i % len(designs)] for i in range(len(cold_slots))]
    rng.shuffle(cold_designs)
    schedule = []
    for index in range(total):
        if index in cold_slots:
            schedule.append(cold_record(seed, index, cold_designs.pop()))
        else:
            schedule.append(warm_record(pairs[rng.randrange(len(pairs))]))
    return schedule


# -- phases ----------------------------------------------------------------------


async def prewarm(conns: list[Connection], pairs: list) -> list[Record]:
    queue = list(pairs)

    async def worker(conn: Connection) -> list[Record]:
        done = []
        while queue:
            record = warm_record(queue.pop(0))
            record.due = record.acquired = time.perf_counter()
            done.append(await send(conn, record))
        return done

    results = await asyncio.gather(*(worker(conn) for conn in conns))
    return [record for batch in results for record in batch]


async def closed_loop(conns, pairs, rng: random.Random, seconds: float) -> list[Record]:
    deadline = time.perf_counter() + seconds
    records: list[Record] = []

    async def client(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            record = warm_record(pairs[rng.randrange(len(pairs))])
            record.due = record.reached = record.acquired = time.perf_counter()
            records.append(await send(conn, record))

    await asyncio.gather(*(client(conn) for conn in conns))
    return records


async def open_loop(conns, schedule: list[Record]) -> list[Record]:
    free: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        free.put_nowait(conn)

    async def one(conn: Connection, record: Record) -> Record:
        try:
            return await send(conn, record)
        finally:
            free.put_nowait(conn)

    tasks = []
    epoch = time.perf_counter() + 0.05
    for index, record in enumerate(schedule):
        record.due = epoch + index / MIXED_RATE
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.reached = time.perf_counter()
        conn = await free.get()
        record.acquired = time.perf_counter()
        tasks.append(asyncio.ensure_future(one(conn, record)))
    return list(await asyncio.gather(*tasks))


# -- checks --------------------------------------------------------------------


def golden_failures(prewarm_records: list[Record]) -> set[tuple]:
    """Pre-warm pairs whose answer differs from the golden digest."""
    golden = json.loads(GOLDEN.read_text())
    bad = set()
    for record in prewarm_records:
        app, design = record.key
        expected = golden["digests"].get(design) if app == golden["app"] else None
        if record.status != 200 or (
            expected is not None
            and hashlib.sha256(record.answer).hexdigest() != expected
        ):
            bad.add(record.key)
    return bad


def check_answers(records: list[Record], reference: dict, bad_pairs: set) -> set[int]:
    """Indices of failed, refused or wrong warm answers (a warm answer
    must equal the pre-warm answer for its pair byte for byte, and that
    answer must itself have passed the golden check)."""
    failed = set()
    for index, record in enumerate(records):
        if record.status != 200:
            failed.add(index)
        elif record.kind == "warm" and (
            record.key in bad_pairs or record.answer != reference.get(record.key)
        ):
            failed.add(index)
    return failed


def resimulate(records: list[Record], rng: random.Random) -> tuple[set[int], dict]:
    """Re-simulate a seeded sample of inline answers in this process;
    returns the failed indices and the timed layer samples."""
    from repro.experiments.designs import design_registry
    from repro.frontend.simulator import FrontendSimulator
    from repro.serve.protocol import stats_payload
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec import WorkloadSpec

    registry = design_registry()
    cold = [i for i, r in enumerate(records) if r.kind == "cold" and r.status == 200]
    failed = set()
    timings = {"generate": [], "kernel": []}
    for index in sorted(rng.sample(cold, min(RESIMULATE, len(cold)))):
        record = records[index]
        begin = time.perf_counter()
        trace = generate_trace(WorkloadSpec(**record.spec))
        timings["generate"].append(time.perf_counter() - begin)
        btb, kwargs = registry[record.key[1]].build()
        begin = time.perf_counter()
        stats = FrontendSimulator(btb, **kwargs).run(trace, warmup_fraction=0.3)
        timings["kernel"].append(time.perf_counter() - begin)
        if stats_payload(stats) != record.answer:
            failed.add(index)
    return failed, timings


# -- one service lifetime --------------------------------------------------------


@dataclass
class Session:
    """Everything one booted service produced."""

    setup_s: float
    prewarm: list[Record]
    records: list[Record] = field(default_factory=list)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    clean: bool = True
    cache: Path | None = None


async def session(work: Path, workload: str, seed: int, seconds: float,
                  traced: bool, timed: bool) -> Session:
    """Boot, pre-warm, optionally drive a timed phase, drain."""
    server = Server(fresh_dir(work), traced)
    started = time.perf_counter()
    conns: list[Connection] = []
    try:
        await server.start()
        conns = [await Connection.open(server.port) for _ in range(nproc())]
        apps = await conns[0].get_json(f"/v1/apps?scale={SCALE}")
        designs = await conns[0].get_json("/v1/designs")
        pairs = [(app, design) for app in apps for design in designs]
        warmed = await prewarm(conns, pairs)
        result = Session(time.perf_counter() - started, warmed, cache=server.cache)
        if timed:
            result.stats_before = await conns[0].get_json("/v1/stats")
            if traced:
                result.metrics_before = await conns[0].get_json("/metrics")
            rng = random.Random(seed)
            if workload == "serve-warm":
                result.records = await closed_loop(conns, pairs, rng, seconds)
            else:
                schedule = mixed_schedule(seed, seconds, pairs, designs)
                result.records = await open_loop(conns, schedule)
            result.stats_after = await conns[0].get_json("/v1/stats")
            if traced:
                result.metrics_after = await conns[0].get_json("/metrics")
            result.rss_mb = peak_rss_mb(server.process.pid)
    finally:
        for conn in conns:
            conn.close()
        clean = server.stop()
    result.clean = clean
    return result


async def sessions(workload: str, seed: int, seconds: float, traced: bool):
    """Untraced: ``SETUP_REPEATS`` boots, the last one driven.  Traced:
    an untraced and a traced boot, each driven for half the time."""
    work = WORK / workload
    if traced:
        plain = await session(work / "plain", workload, seed, seconds / 2, False, True)
        spans = await session(work / "traced", workload, seed, seconds / 2, True, True)
        return [plain, spans]
    return [
        await session(work / f"boot{i}", workload, seed, seconds, False,
                      i == SETUP_REPEATS - 1)
        for i in range(SETUP_REPEATS)
    ]


async def _bounded(coroutine):
    try:
        return await asyncio.wait_for(coroutine, timeout=BUDGET_S)
    except asyncio.TimeoutError:
        raise BenchError(f"serve sessions did not finish in {BUDGET_S} s") from None


# -- the workload ---------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    try:
        booted = asyncio.run(_bounded(sessions(workload, seed, seconds, traced)))
        driven = booted[-1]
        outcome = Outcome(clean=all(s.clean for s in booted))
        reference = {r.key: r.answer for r in booted[0].prewarm}
        bad_pairs = set()
        for boot in booted:
            bad_pairs |= golden_failures(boot.prewarm)
            bad_pairs |= {r.key for r in boot.prewarm if r.answer != reference[r.key]}
        records = [r for s in booted for r in s.records]
        outcome.attempted = len(records) + sum(len(s.prewarm) for s in booted)
        outcome.failed = check_answers(records, reference, bad_pairs)
        # A wrong pre-warm answer is a failed request too; number those
        # after the timed requests.
        outcome.failed |= {len(records) + i for i, key in enumerate(
            r.key for s in booted for r in s.prewarm) if key in bad_pairs}
        rng = random.Random(seed ^ 0x5EED)
        wrong, inline = resimulate(records, rng)
        outcome.failed |= wrong
        if traced:
            offset = len(booted[0].records)
            layers = _layers(booted[0], driven, driven.records, inline, reference)
            dump_spans([_span(r) for r in records[offset:]], workload)
            outcome.metrics = layers
        else:
            _end_to_end(outcome, workload, booted, driven.records)
    finally:
        shutil.rmtree(WORK / workload, ignore_errors=True)
    return outcome


def _ok(records: list[Record], kind: str | None = None) -> list[Record]:
    return [r for r in records if r.status == 200 and kind in (None, r.kind)]


def _end_to_end(outcome: Outcome, workload: str, booted: list[Session],
                records: list[Record]) -> None:
    driven = booted[-1]
    ok = _ok(records)
    window = max(r.done for r in records) - min(r.due for r in records)
    warm = [r.latency * 1e3 for r in _ok(records, "warm")]
    cold = [r.latency * 1e3 for r in _ok(records, "cold")]
    if workload == "serve-warm":
        p50, tail, tail_q = warm, warm, 99
    else:
        p50, tail, tail_q = cold, warm, 95
    setups = [s.setup_s for s in booted]
    outcome.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": driven.rss_mb,
        "throughput_per_s": len(ok) / window,
        "p50_ms": median(p50),
        "tail_ms": percentile(tail, tail_q),
    }
    outcome.samples = {
        "setup_s": len(setups), "peak_rss_mb": 1, "throughput_per_s": len(ok),
        "p50_ms": len(p50), "tail_ms": len(tail),
    }
    extra = {}
    for kind, samples in (("warm", warm), ("cold", cold)):
        for q in (50, 90, 95, 99):
            if samples and beyond(samples, q) >= 10:
                extra[f"{kind}_p{q}_ms"] = (percentile(samples, q), "ms", len(samples))
    if workload == "serve-mixed":
        lateness = [(r.reached - r.due) * 1e3 for r in records]
        extra["client.lateness_p99_ms"] = (percentile(lateness, 99), "ms",
                                           len(lateness))
    outcome.extra = extra


def _hist_delta_p99(before: dict, after: dict, name: str) -> float:
    from repro.obs.metrics import percentile_from_buckets

    def counts(snapshot: dict) -> list[int]:
        series = snapshot.get(name, {}).get("series", [])
        return [sum(c) for c in zip(*(s["bucket_counts"] for s in series))]

    now, then = counts(after), counts(before)
    then = then or [0] * len(now)
    delta = [a - b for a, b in zip(now, then)]
    return percentile_from_buckets(after[name]["buckets"], delta, 99)


def _layers(plain: Session, traced: Session, records: list[Record],
            inline: dict, reference: dict) -> dict:
    from repro.experiments import harness
    from repro.experiments.designs import design_registry
    from repro.frontend.params import ICELAKE

    metrics = {name: 0.0 for name, _ in PER_LAYER}
    ok = _ok(records)
    for kind in ("warm", "cold"):
        chosen = _ok(records, kind)
        for metric, pick in (
            ("batch_wait_ms", lambda r: r.hop("batch-wait")),
            ("queue_ms", lambda r: r.hop("queue")),
            ("runner_ms", lambda r: r.hop("simulate")),
            ("http_ms", lambda r: r.http),
        ):
            metrics[f"serve.{metric}.{kind}"] = median(pick(r) for r in chosen) * 1e3
    metrics["serve.batch_size_mean"] = (
        sum(int(r.headers.get("x-repro-batch-size", 0)) for r in ok) / len(ok)
    )
    metrics["serve.memo_hit_ratio"] = (
        sum(r.headers.get("x-repro-outcome") == "memo" for r in ok) / len(ok)
    )
    metrics["serve.trace_decodes"] = (
        traced.stats_after["service"]["trace_decodes"]
        - traced.stats_before["service"]["trace_decodes"]
    )
    metrics["client.conn_wait_ms.warm"] = median(
        (r.acquired - r.reached) for r in _ok(records, "warm")) * 1e3
    metrics["client.lateness_ms"] = median(r.reached - r.due for r in records) * 1e3
    if inline["generate"]:
        metrics["workloads.generate_ms.inline"] = median(inline["generate"]) * 1e3
        metrics["frontend.kernel_ms.inline"] = median(inline["kernel"]) * 1e3
    exact = percentile([r.done - r.sent for r in ok], 99)
    estimate = _hist_delta_p99(traced.metrics_before, traced.metrics_after,
                               "serve_request_seconds")
    metrics["obs.p99_estimate_ratio"] = estimate / exact
    end_to_end = sum(r.latency for r in records)
    metrics["unattributed_share"] = (
        sum(r.sent - r.acquired for r in records) / end_to_end
    )
    metrics["trace.overhead_ratio"] = (
        median(r.latency for r in records)
        / median(r.latency for r in plain.records) - 1.0
    )

    # The result-cache calls a warm lookup makes, timed here against the
    # traced service's disk cache (it published every pre-warm result).
    os.environ["REPRO_DISK_CACHE"] = "1"
    os.environ["REPRO_DISK_CACHE_DIR"] = str(traced.cache)
    registry = design_registry()
    apps = sorted({app for app, _ in reference})
    lookups, payloads = time_lookups(harness, registry, apps, SCALE, ICELAKE)
    metrics.update({f"experiments.{k}": v for k, v in lookups.items()})
    metrics["serve.serialise_us"] = median(payloads) * 1e6
    return metrics


def _span(record: Record) -> dict:
    return {
        "layer": f"request.{record.kind}", "op": "/".join(record.key),
        "due": record.due, "sent": record.sent, "end": record.done,
        "status": record.status,
        **{name: record.hop(name) for name in ("batch-wait", "queue", "simulate")},
        "http": record.http,
    }
