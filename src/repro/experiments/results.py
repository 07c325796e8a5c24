"""The result-cache chain: one ordered walk over memo -> disk -> store.

Every full-run simulation result -- a suite (app, design) pair from the
harness, or an inline-spec job from the serving layer -- lives behind
the same three tiers:

``memo``
    this process's dict, keyed on the cheap tuple
    ``(trace name or spec digest, scale, design key, params, warmup)``;
``disk``
    ``results/<key>.json`` under the disk-cache root
    (:func:`repro.experiments.diskcache.load_result`), keyed on the
    content hash;
``store``
    the optional cluster-shared :class:`~repro.experiments.resultstore.ResultStore`
    installed by the serving layer, keyed on the same content hash.

:func:`get` walks the tiers in that order and installs a lower-tier hit
in the memo; :func:`put` publishes to every tier.  The content hash is
computed only when the memo misses, so a warm hit never hashes.  A
shared-store failure degrades through :func:`resultstore.degraded` and
reads as a miss -- the caller simulates locally.

``REPRO_RESULT_CACHE=0`` turns the whole chain off: every lookup misses
and nothing is published.  The serving layer's cross-replica
single-flight (:func:`resultstore.fetch_or_compute`) talks to the
shared store directly and is governed by ``--store`` alone; without a
store, :func:`compute_once` is its process-local counterpart (one
in-process lease per memo key).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from repro.experiments import diskcache, resultstore
from repro.frontend.params import CoreParams
from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import suite_spec

__all__ = [
    "ResultRef", "clear", "compute_once", "enabled", "get", "memo_size", "put",
    "remember",
]

#: memo key -> FrontendStats.  Written by serve worker threads while the
#: event loop reads its size for ``/v1/stats`` (REP104).
_MEMO: dict[tuple, FrontendStats] = {}
#: memo key -> the in-flight computation's completion event (see
#: :func:`compute_once`); guarded by ``_LOCK`` like the memo.
_LEASES: dict[tuple, threading.Event] = {}
_LOCK = threading.Lock()

#: ``harness_result_cache_total`` outcome label per answering tier.
_OUTCOMES = {"memo": "hit", "disk": "disk-hit", "store": "store-hit", "miss": "miss"}


def enabled() -> bool:
    """``REPRO_RESULT_CACHE=0`` disables the chain (forced fresh runs)."""
    return os.environ.get("REPRO_RESULT_CACHE", "1") != "0"


@dataclass(frozen=True)
class ResultRef:
    """Identity of one full-run simulation result.

    ``spec`` is set for inline workloads (``spec_digest`` then keys the
    memo, so same-named specs never alias); suite members leave it
    ``None`` and are identified by ``trace_name`` at ``scale``.
    """

    trace_name: str
    scale: str
    design_key: str
    params: CoreParams
    warmup_fraction: float
    spec: WorkloadSpec | None = None
    spec_digest: str = ""

    @property
    def memo_key(self) -> tuple:
        return (
            self.spec_digest or self.trace_name, self.scale, self.design_key,
            self.params, self.warmup_fraction,
        )

    @cached_property
    def key(self) -> str:
        """The content hash the disk tier, the store and leases share."""
        spec = self.spec or suite_spec(self.trace_name, self.scale)
        return diskcache.result_key(
            self.trace_name, self.scale, self.design_key, self.params,
            self.warmup_fraction, spec=spec,
        )


def _from_disk(ref: ResultRef) -> FrontendStats | None:
    return diskcache.load_result(ref.key) if diskcache.disk_cache_enabled() else None


def _from_store(ref: ResultRef) -> FrontendStats | None:
    store = resultstore.get_active_store()
    if store is None:
        return None
    try:
        return store.get_result(ref.key)
    except resultstore.StoreError as error:
        resultstore.degraded("get_result", error, app=ref.trace_name, design=ref.design_key)
        return None


#: The tiers below the memo, in lookup order.
_LOWER_TIERS = (("disk", _from_disk), ("store", _from_store))


def _walk(ref: ResultRef) -> tuple[FrontendStats | None, str]:
    if not enabled():
        return None, "miss"
    with _LOCK:
        stats = _MEMO.get(ref.memo_key)
    if stats is not None:
        return stats, "memo"
    for tier, load in _LOWER_TIERS:
        stats = load(ref)
        if stats is not None:
            remember(ref, stats)
            return stats, tier
    return None, "miss"


def get(ref: ResultRef) -> tuple[FrontendStats | None, str]:
    """Look ``ref`` up tier by tier: ``(stats, "memo"|"disk"|"store")``,
    or ``(None, "miss")``."""
    stats, tier = _walk(ref)
    get_registry().counter(
        "harness_result_cache_total", "memo-cache lookups by outcome"
    ).inc(outcome=_OUTCOMES[tier])
    obs_events.emit(
        "cache-lookup", layer=tier if stats is not None else "all",
        app=ref.trace_name, design=ref.design_key, hit=stats is not None,
    )
    return stats, tier


def remember(ref: ResultRef, stats: FrontendStats) -> None:
    """Install ``stats`` in the memo tier only."""
    if enabled():
        with _LOCK:
            _MEMO[ref.memo_key] = stats


def put(ref: ResultRef, stats: FrontendStats, shared: bool = True) -> None:
    """Publish a computed result to every tier (``shared=False`` skips
    the shared store, for callers whose single-flight publishes it)."""
    if not enabled():
        return
    remember(ref, stats)
    if diskcache.disk_cache_enabled():
        diskcache.store_result(ref.key, stats)
    store = resultstore.get_active_store() if shared else None
    if store is not None:
        try:
            store.put_result(ref.key, stats)
        except resultstore.StoreError as error:
            resultstore.degraded(
                "put_result", error, app=ref.trace_name, design=ref.design_key
            )


def compute_once(
    ref: ResultRef, compute: Callable[[], FrontendStats]
) -> tuple[FrontendStats, str]:
    """Process-local single-flight: ``(compute(), "fresh")`` for the
    first caller of a memo key, ``(stats, "memo")`` for callers that
    arrive while it runs.

    The first caller takes an in-process lease on ``ref.memo_key`` and
    runs ``compute`` (which is expected to :func:`put` its result);
    later callers wait for the lease, then re-run :func:`get`.  If the
    owner failed or the chain is off, a waiter takes the lease itself
    and computes.
    """
    key = ref.memo_key
    chain_on = enabled()
    while True:
        with _LOCK:
            stats = _MEMO.get(key) if chain_on else None
            if stats is not None:
                # The owner finished between the caller's miss and now.
                return stats, "memo"
            lease = _LEASES.get(key)
            owner = lease is None
            if owner:
                lease = _LEASES[key] = threading.Event()
        if owner:
            try:
                return compute(), "fresh"
            finally:
                with _LOCK:
                    del _LEASES[key]
                lease.set()
        lease.wait()
        stats, tier = get(ref)
        if stats is not None:
            return stats, tier


def memo_size() -> int:
    with _LOCK:
        return len(_MEMO)


def clear() -> None:
    """Drop every memoised result (the disk and store tiers persist)."""
    with _LOCK:
        _MEMO.clear()
