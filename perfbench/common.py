"""Shared pieces of the repository benchmark: metric schema, statistics,
in-memory spans, process hygiene.

Nothing here imports :mod:`repro`; the workload modules do that after
``run.py`` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for hermetic cache directories, server logs and span
#: dumps.  Inside the checkout, ignored by git.
WORK = ROOT / ".perfbench_tmp"

WORKLOADS = ("sweep", "serve-warm", "serve-mixed")

#: (name, unit) of every end-to-end metric, reported on every workload
#: with tracing off.  What each slot means per workload is in README.md.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)

#: (name, unit) of every per-layer metric, reported on every workload by
#: the traced run.  A layer idle in a workload's measured phase reads 0.
PER_LAYER = (
    ("workloads.trace_load_s", "s"),
    ("workloads.decode_s", "s"),
    ("workloads.prepare_s", "s"),
    ("workloads.generate_ms.inline", "ms"),
    ("frontend.kernel_s.vector", "s"),
    ("frontend.kernel_s.fast", "s"),
    ("frontend.kernel_s.general", "s"),
    ("frontend.events_per_s.vector", "1/s"),
    ("frontend.events_per_s.general", "1/s"),
    ("frontend.runs.vector", "count"),
    ("frontend.runs.fast", "count"),
    ("frontend.runs.general", "count"),
    ("frontend.kernel_ms.inline", "ms"),
    ("experiments.publish_s", "s"),
    ("experiments.lookup_memo_us", "us"),
    ("experiments.lookup_disk_us", "us"),
    ("experiments.result_key_us", "us"),
    ("serve.serialise_us", "us"),
    ("serve.batch_wait_ms.warm", "ms"),
    ("serve.batch_wait_ms.cold", "ms"),
    ("serve.queue_ms.warm", "ms"),
    ("serve.queue_ms.cold", "ms"),
    ("serve.runner_ms.warm", "ms"),
    ("serve.runner_ms.cold", "ms"),
    ("serve.http_ms.warm", "ms"),
    ("serve.http_ms.cold", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.trace_decodes", "count"),
    ("client.conn_wait_ms.warm", "ms"),
    ("client.lateness_ms", "ms"),
    ("obs.p99_estimate_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


@dataclass
class Outcome:
    """What one workload run measured.

    ``failed`` holds the indices (into the attempted operations) of
    every operation that failed, was refused or answered wrongly;
    ``metrics`` maps a metric name to its value and ``samples`` to the
    sample count behind it; ``extra`` holds further named figures
    printed for humans but not in the result line, each
    ``name -> (value, unit, samples)``; ``clean`` is false when a
    service did not drain cleanly.
    """

    attempted: int = 0
    failed: set = field(default_factory=set)
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    clean: bool = True


# -- statistics ---------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 for none)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def beyond(samples, q: float) -> int:
    """How many samples lie above the ``q`` percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


# -- spans ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder with self-time accounting.

    :meth:`wrap` replaces a module function or class attribute with a
    timing wrapper, so every call into that layer becomes a span; calls
    nest through an explicit stack and a span's *self* time is its
    duration minus its children's.  Records stay in memory until the run
    ends (:func:`dump_spans`); :meth:`restore` puts the originals back.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, layer: str):
        start = time.perf_counter()
        frame = [layer, 0.0]
        self._stack.append(frame)
        try:
            yield frame
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.records.append({
                "layer": frame[0],
                "op": self.op,
                "parent": self._stack[-1][0] if self._stack else None,
                "start": start,
                "end": end,
                "self": duration - frame[1],
            })

    def wrap(self, owner, attr: str, layer, relabel=None) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``relabel(args, result)`` may rename the span once the call has
        returned (the frontend's engine tier is only known afterwards).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        spans = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            with spans.span(layer) as frame:
                result = function(*args, **kwargs)
                if relabel is not None:
                    frame[0] = relabel(args, result)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def self_seconds(self, layer: str) -> float:
        return sum(r["self"] for r in self.records if r["layer"] == layer)

    def count(self, layer: str) -> int:
        return sum(1 for r in self.records if r["layer"] == layer)



def dump_spans(records: list[dict], workload: str) -> Path:
    """Write a traced run's spans out, one JSON object a line."""
    path = WORK / f"spans-{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def time_lookups(harness, registry: dict, apps: list, scale: str,
                 params) -> tuple[dict, list[float]]:
    """Time the result-cache calls a warm lookup makes, per (app, design):
    the key function, a disk hit (memo cleared first), a memo hit, and
    the response serialisation of the result.  Returns the median
    microseconds of the first three and the serialisation samples."""
    from repro.serve.protocol import stats_payload

    keys, disk, memo, payloads = [], [], [], []
    harness.clear_cache()
    for app in apps:
        for design in registry.values():
            begin = time.perf_counter()
            harness.result_store_key(app, design.key, params, 0.3, scale)
            keys.append(time.perf_counter() - begin)
            for sink, expected in ((disk, "disk"), (memo, "memo")):
                begin = time.perf_counter()
                stats, outcome = harness.lookup_cached(app, design, scale=scale)
                sink.append(time.perf_counter() - begin)
                if outcome != expected:
                    raise BenchError(f"{app}/{design.key}: lookup answered "
                                     f"{outcome}, expected {expected}")
            begin = time.perf_counter()
            stats_payload(stats)
            payloads.append(time.perf_counter() - begin)
    return {
        "result_key_us": median(keys) * 1e6,
        "lookup_disk_us": median(disk) * 1e6,
        "lookup_memo_us": median(memo) * 1e6,
    }, payloads


# -- processes ------------------------------------------------------------------


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a program process: the checkout's ``src/`` on the
    path and no ambient ``REPRO_*`` knob leaking in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def stop(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, and SIGKILL if the process does not go."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
