"""Pluggable shared result store for multi-replica serving.

One ``repro.serve`` process shares warm results through its in-process
memo and the local disk cache (:mod:`repro.experiments.diskcache`).
Neither survives the process or crosses a host boundary, so N serve
replicas would each re-simulate identical cold jobs.  This module adds
the missing tier: a protocol-level **shared backend** every replica
talks to, giving the cluster

* one **content-addressed result space** -- results are keyed by the
  same SHA-256 content hashes the disk cache uses, so two replicas (or
  a replica and a batch run) can never disagree about what a key means,
  and concurrent writers racing on one key write identical bytes
  (last-write-wins is therefore *safe*, see DESIGN.md §14);
* **cross-node single-flight** -- a cold job is claimed by exactly one
  replica cluster-wide through a compare-and-set lease with a TTL,
  heartbeat renewal while the winner computes, and orphan takeover when
  a claimant dies without publishing (:func:`fetch_or_compute`).

Three implementations ship:

``DiskStore``
    Wraps the existing disk-cache layout (same ``results/<key>.json``
    files, same ``RESULT_VERSION`` discipline), adding file-based
    leases -- replicas sharing a filesystem (or a single dev box) get
    the full protocol with zero new infrastructure.
``RedisStore``
    Speaks RESP2 to a Redis server over a stdlib socket (no third-party
    client): ``SET NX PX`` is the lease CAS, key TTLs give orphan
    takeover for free.
``FakeStore``
    A deterministic in-memory fake with an injectable clock and
    fault-injection schedules (fail-next-N, latency spikes,
    partition/heal) that the contract and serve-distributed test suites
    run against.

Every backend failure surfaces as :class:`StoreError`; callers degrade
to local compute (never a wrong answer, never a lost request) and
account the degradation through the ``serve_store_errors_total`` metric
and a ``store_degraded`` event.

Knobs (all flow through :class:`repro.serve.config.ServeConfig`):
``REPRO_SERVE_STORE`` selects the backend by URL (``redis://host:port/0``,
``disk://`` or ``disk:///path``, ``fake://name``); ``REPRO_SERVE_STORE_TTL``
/ ``_WAIT`` / ``_POLL`` tune the lease state machine.  See README
"Shared result store".
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from repro.frontend.stats import FrontendStats
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry
from repro.experiments import diskcache

__all__ = [
    "DiskStore",
    "FakeStore",
    "RedisStore",
    "ResultStore",
    "StoreError",
    "decode_result",
    "default_owner",
    "encode_result",
    "fetch_or_compute",
    "get_active_store",
    "set_active_store",
    "store_from_url",
]


class StoreError(RuntimeError):
    """A shared-store backend failure (network, protocol, injected).

    Callers never propagate this to a client: every code path catches
    it, records the degradation, and falls back to local compute.
    """


def default_owner() -> str:
    """A cluster-unique claimant id for leases (host, pid, thread)."""
    return f"{socket.gethostname()}:{os.getpid()}:{threading.get_ident()}"


# -- value encoding ----------------------------------------------------------
#
# The wire/value format is exactly the disk cache's result JSON
# (:func:`repro.experiments.diskcache.encode_result`), so a DiskStore
# entry is indistinguishable from one the disk tier wrote, and a Redis
# value round-trips to the same FrontendStats a direct caller would
# serialise.  A ``None`` from ``decode_result`` tells the store to
# quarantine the value and report a miss.

encode_result = diskcache.encode_result
decode_result = diskcache.decode_result


# -- the protocol ------------------------------------------------------------


class ResultStore:
    """Shared result space + cross-node lease protocol.

    Results are immutable content-addressed values: ``put_result`` for
    one key always writes the same bytes, so concurrent publishes are
    harmless.  Leases implement cluster-wide single-flight:

    * :meth:`acquire_lease` is a compare-and-set -- it succeeds iff no
      *live* lease exists for the key (an expired lease is taken over);
    * :meth:`renew_lease` is the claimant's heartbeat -- it extends the
      TTL only while the claimant still owns the lease;
    * :meth:`release_lease` drops the claim (owner-checked, so a
      claimant that lost its lease cannot release the new owner's).

    Every method may raise :class:`StoreError` on backend failure.
    """

    kind = "abstract"

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        raise NotImplementedError

    def put_result(self, key: str, stats: FrontendStats) -> None:
        raise NotImplementedError

    def has_result(self, key: str) -> bool:
        raise NotImplementedError

    # -- traces (optional; only backends with cheap bulk storage) --

    def get_trace_bytes(self, key: str) -> bytes | None:
        return None

    def put_trace_bytes(self, key: str, data: bytes) -> None:
        return None

    # -- leases --

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        raise NotImplementedError

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        raise NotImplementedError

    def release_lease(self, key: str, owner: str) -> None:
        raise NotImplementedError

    def lease_owner(self, key: str) -> str | None:
        """Current live claimant of ``key`` (None: unclaimed/expired)."""
        raise NotImplementedError

    # -- lifecycle / introspection --

    def ping(self) -> bool:
        """Backend liveness probe (False/StoreError: unreachable)."""
        return True

    def describe(self) -> dict:
        """Operator-facing summary for ``/v1/stats``."""
        return {"kind": self.kind}

    def close(self) -> None:
        return None


# -- DiskStore ---------------------------------------------------------------


class DiskStore(ResultStore):
    """Filesystem store sharing the disk cache's content-addressed layout.

    Results live at ``<root>/results/<key>.json`` -- byte-compatible
    with :mod:`repro.experiments.diskcache`, so with the default root a
    result published by one serve replica is a plain disk-cache hit for
    a batch ``repro experiment`` run on the same host, and vice versa.

    Leases are lock files at ``<root>/leases/<key>.json`` created with
    ``O_CREAT | O_EXCL`` (the filesystem's compare-and-set).  Takeover
    of an expired lease renames the stale lock to a unique name first;
    ``os.rename`` hands the stale file to exactly one taker, so two
    replicas racing on the same orphan cannot both win the subsequent
    exclusive create.
    """

    kind = "disk"

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = Path(root) if root is not None else None
        self._counter = threading.Lock()
        self._quarantined = 0

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else diskcache.cache_root()

    def _result_path(self, key: str) -> Path:
        return self.root / "results" / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.json"

    def _now(self) -> float:
        return time.time()

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        try:
            stats = diskcache.read_result(self._result_path(key))
        except FileNotFoundError:
            return None
        except OSError as error:
            raise StoreError(f"disk read failed: {error}") from error
        if stats is None:
            with self._counter:
                self._quarantined += 1
        return stats

    def put_result(self, key: str, stats: FrontendStats) -> None:
        try:
            diskcache.write_result(self._result_path(key), stats)
        except OSError as error:
            raise StoreError(f"disk write failed: {error}") from error

    def has_result(self, key: str) -> bool:
        try:
            return self._result_path(key).exists()
        except OSError as error:
            raise StoreError(f"disk stat failed: {error}") from error

    # -- leases --

    def _read_lease(self, path: Path) -> tuple[str, float] | None:
        try:
            payload = json.loads(path.read_bytes())
            return str(payload["owner"]), float(payload["expires"])
        except FileNotFoundError:
            return None
        except Exception:
            # A torn lock write is treated as expired: it can only have
            # come from a crashed claimant mid-publish.
            return "", 0.0

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        path = self._lease_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(f"disk lease mkdir failed: {error}") from error
        lease = self._read_lease(path)
        if lease is not None:
            held_owner, expires = lease
            if expires > self._now():
                return False
            # Expired: rename the orphan aside.  Exactly one taker wins
            # the rename; the loser sees FileNotFoundError and falls
            # through to the exclusive create (which the winner's fresh
            # lock then defeats).
            stale = path.parent / f"{path.name}.stale-{os.getpid()}-{threading.get_ident()}"
            try:
                os.rename(path, stale)
                stale.unlink()
            except OSError:
                pass
        payload = json.dumps({"owner": owner, "expires": self._now() + ttl})
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError as error:
            raise StoreError(f"disk lease create failed: {error}") from error
        try:
            os.write(handle, payload.encode())
        finally:
            os.close(handle)
        return True

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        path = self._lease_path(key)
        lease = self._read_lease(path)
        if lease is None or lease[0] != owner or lease[1] <= self._now():
            return False
        payload = json.dumps({"owner": owner, "expires": self._now() + ttl})
        tmp = path.parent / f"{path.name}.renew-{os.getpid()}-{threading.get_ident()}"
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError as error:
            raise StoreError(f"disk lease renew failed: {error}") from error
        return True

    def release_lease(self, key: str, owner: str) -> None:
        path = self._lease_path(key)
        lease = self._read_lease(path)
        if lease is None or lease[0] != owner:
            return
        try:
            path.unlink()
        except OSError:
            pass

    def lease_owner(self, key: str) -> str | None:
        lease = self._read_lease(self._lease_path(key))
        if lease is None or lease[1] <= self._now():
            return None
        return lease[0]

    def ping(self) -> bool:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        return True

    def describe(self) -> dict:
        with self._counter:
            quarantined = self._quarantined
        return {"kind": self.kind, "root": str(self.root), "quarantined": quarantined}


# -- RedisStore --------------------------------------------------------------


class RedisStore(ResultStore):
    """RESP2 client over a stdlib socket -- no third-party dependency.

    Key layout: ``repro:result:<key>`` holds result bytes,
    ``repro:lease:<key>`` holds the claimant id with a server-side
    ``PX`` TTL.  ``SET NX PX`` is the lease compare-and-set; an orphan
    lease simply expires on the server, so takeover is the same
    ``SET NX`` retried.  Renewal and release are owner-checked
    (``GET`` == owner, then ``PEXPIRE`` / ``DEL``): the read-check-act
    window is racy only against *expiry*, which the heartbeat cadence
    (renew at TTL/3) keeps comfortably away from.
    """

    kind = "redis"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 6379,
        db: int = 0,
        password: str | None = None,
        timeout: float = 5.0,
        prefix: str = "repro",
    ) -> None:
        self.host = host
        self.port = port
        self.db = db
        self.password = password
        self.timeout = timeout
        self.prefix = prefix
        #: One socket shared by all worker threads (commands serialise
        #: on the lock; the serve hot path is memo/disk-first, so the
        #: store sees misses and publishes, not per-request traffic).
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    @classmethod
    def from_url(cls, url: str, timeout: float = 5.0) -> "RedisStore":
        parts = urlsplit(url)
        if parts.scheme != "redis":
            raise StoreError(f"not a redis URL: {url!r}")
        db = 0
        path = (parts.path or "").strip("/")
        if path:
            try:
                db = int(path)
            except ValueError as error:
                raise StoreError(f"bad redis db in {url!r}") from error
        return cls(
            host=parts.hostname or "127.0.0.1",
            port=parts.port or 6379,
            db=db,
            password=parts.password,
            timeout=timeout,
        )

    # -- connection + protocol --

    def _connect_locked(self) -> None:
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as error:
            raise StoreError(f"redis connect {self.host}:{self.port}: {error}") from error
        self._sock = sock
        self._file = sock.makefile("rb")
        if self.password:
            self._exchange_locked("AUTH", self.password)
        if self.db:
            self._exchange_locked("SELECT", str(self.db))

    def _close_locked(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._file = None

    def _exchange_locked(self, *args: str | bytes):
        """Send one RESP2 command and read its reply (lock held)."""
        out = [f"*{len(args)}\r\n".encode()]
        for arg in args:
            data = arg if isinstance(arg, bytes) else str(arg).encode()
            out.append(f"${len(data)}\r\n".encode() + data + b"\r\n")
        assert self._sock is not None and self._file is not None
        try:
            self._sock.sendall(b"".join(out))
            return self._read_reply_locked()
        except OSError as error:
            self._close_locked()
            raise StoreError(f"redis io: {error}") from error

    def _read_reply_locked(self):
        line = self._file.readline()
        if not line.endswith(b"\r\n"):
            self._close_locked()
            raise StoreError("redis connection closed mid-reply")
        marker, payload = line[:1], line[1:-2]
        if marker == b"+":
            return payload.decode()
        if marker == b":":
            return int(payload)
        if marker == b"-":
            raise StoreError(f"redis error: {payload.decode()}")
        if marker == b"$":
            length = int(payload)
            if length == -1:
                return None
            data = self._file.read(length + 2)
            if len(data) != length + 2:
                self._close_locked()
                raise StoreError("redis connection closed mid-bulk")
            return data[:-2]
        if marker == b"*":
            count = int(payload)
            if count == -1:
                return None
            return [self._read_reply_locked() for _ in range(count)]
        self._close_locked()
        raise StoreError(f"unexpected RESP marker {marker!r}")

    def command(self, *args: str | bytes):
        """One command against a live connection (reconnect-on-demand)."""
        with self._lock:
            if self._sock is None:
                self._connect_locked()
            return self._exchange_locked(*args)

    # -- results --

    def _result_key(self, key: str) -> str:
        return f"{self.prefix}:result:{key}"

    def _lease_key(self, key: str) -> str:
        return f"{self.prefix}:lease:{key}"

    def get_result(self, key: str) -> FrontendStats | None:
        data = self.command("GET", self._result_key(key))
        if data is None:
            return None
        stats = decode_result(data)
        if stats is None:
            # Quarantine: move the corrupt value aside (keyed uniquely
            # for post-mortems) so the slot reads as a miss.
            try:
                self.command(
                    "RENAME",
                    self._result_key(key),
                    f"{self.prefix}:corrupt:{key}:{os.getpid()}",
                )
            except StoreError:
                pass  # value vanished or was replaced concurrently
            return None
        return stats

    def put_result(self, key: str, stats: FrontendStats) -> None:
        self.command("SET", self._result_key(key), encode_result(stats))

    def has_result(self, key: str) -> bool:
        return bool(self.command("EXISTS", self._result_key(key)))

    # -- leases --

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        reply = self.command(
            "SET", self._lease_key(key), owner, "NX", "PX", str(max(1, int(ttl * 1000)))
        )
        return reply == "OK"

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        holder = self.command("GET", self._lease_key(key))
        if holder is None or holder.decode() != owner:
            return False
        return bool(
            self.command("PEXPIRE", self._lease_key(key), str(max(1, int(ttl * 1000))))
        )

    def release_lease(self, key: str, owner: str) -> None:
        holder = self.command("GET", self._lease_key(key))
        if holder is not None and holder.decode() == owner:
            self.command("DEL", self._lease_key(key))

    def lease_owner(self, key: str) -> str | None:
        holder = self.command("GET", self._lease_key(key))
        return holder.decode() if holder is not None else None

    def ping(self) -> bool:
        try:
            return self.command("PING") == "PONG"
        except StoreError:
            return False

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "endpoint": f"{self.host}:{self.port}/{self.db}",
            "connected": self._sock is not None,
        }

    def close(self) -> None:
        with self._lock:
            self._close_locked()


# -- FakeStore ---------------------------------------------------------------


class FakeStore(ResultStore):
    """Deterministic in-memory store with injectable fault schedules.

    The whole distributed test suite runs against this: it implements
    the full protocol under one lock, takes an injectable ``clock`` so
    TTL expiry is advanced by the test instead of wall sleeping, and
    exposes three fault schedules --

    * :meth:`fail_next` -- the next N protocol calls raise
      :class:`StoreError` (optionally only for named ops);
    * :meth:`add_latency` -- the next N calls sleep first (latency
      spikes; sleeps happen outside the lock);
    * :meth:`partition` / :meth:`heal` -- every call fails until healed.

    Per-op call counts (:attr:`calls`) and quarantine/lease telemetry
    let tests assert *how* the cluster coordinated, not just the final
    answers.
    """

    kind = "fake"

    def __init__(self, clock: Callable[[], float] | None = None, name: str = "") -> None:
        self.name = name
        self._clock = clock or time.monotonic
        self._lock = threading.RLock()
        self._results: dict[str, bytes] = {}
        self._leases: dict[str, tuple[str, float]] = {}
        self.quarantined: dict[str, bytes] = {}
        self.calls: dict[str, int] = {}
        self._fail_budget = 0
        self._fail_ops: frozenset[str] | None = None
        self._latency_budget = 0
        self._latency_seconds = 0.0
        self._partitioned = False

    # -- fault schedules --

    def fail_next(self, count: int, ops: tuple[str, ...] | None = None) -> None:
        """Fail the next ``count`` calls (optionally only ``ops``)."""
        with self._lock:
            self._fail_budget = count
            self._fail_ops = frozenset(ops) if ops is not None else None

    def add_latency(self, seconds: float, count: int = 1_000_000) -> None:
        """Sleep ``seconds`` before each of the next ``count`` calls."""
        with self._lock:
            self._latency_seconds = seconds
            self._latency_budget = count

    def partition(self) -> None:
        """Drop the (simulated) network: every call raises StoreError."""
        with self._lock:
            self._partitioned = True

    def heal(self) -> None:
        with self._lock:
            self._partitioned = False

    def _enter(self, op: str) -> None:
        sleep_for = 0.0
        with self._lock:
            self.calls[op] = self.calls.get(op, 0) + 1
            if self._latency_budget > 0:
                self._latency_budget -= 1
                sleep_for = self._latency_seconds
            if self._partitioned:
                raise StoreError(f"fake store partitioned ({op})")
            if self._fail_budget > 0 and (
                self._fail_ops is None or op in self._fail_ops
            ):
                self._fail_budget -= 1
                raise StoreError(f"injected failure ({op})")
        if sleep_for > 0:
            time.sleep(sleep_for)

    # -- results --

    def get_result(self, key: str) -> FrontendStats | None:
        self._enter("get_result")
        with self._lock:
            data = self._results.get(key)
            if data is None:
                return None
            stats = decode_result(data)
            if stats is None:
                self.quarantined[key] = self._results.pop(key)
                return None
            return stats

    def put_result(self, key: str, stats: FrontendStats) -> None:
        self._enter("put_result")
        with self._lock:
            self._results[key] = encode_result(stats)

    def has_result(self, key: str) -> bool:
        self._enter("has_result")
        with self._lock:
            return key in self._results

    def corrupt(self, key: str, data: bytes = b"{not json") -> None:
        """Test hook: replace a stored value with garbage bytes."""
        with self._lock:
            self._results[key] = data

    # -- leases --

    def acquire_lease(self, key: str, owner: str, ttl: float) -> bool:
        self._enter("acquire_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease[1] > self._clock():
                return False
            self._leases[key] = (owner, self._clock() + ttl)
            return True

    def renew_lease(self, key: str, owner: str, ttl: float) -> bool:
        self._enter("renew_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease[0] != owner or lease[1] <= self._clock():
                return False
            self._leases[key] = (owner, self._clock() + ttl)
            return True

    def release_lease(self, key: str, owner: str) -> None:
        self._enter("release_lease")
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None and lease[0] == owner:
                del self._leases[key]

    def lease_owner(self, key: str) -> str | None:
        self._enter("lease_owner")
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease[1] <= self._clock():
                return None
            return lease[0]

    def ping(self) -> bool:
        self._enter("ping")
        return True

    def describe(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "results": len(self._results),
                "leases": len(self._leases),
                "quarantined": len(self.quarantined),
                "partitioned": self._partitioned,
            }


# -- URL resolution ----------------------------------------------------------

#: Named in-process fakes, so two in-process replicas configured with
#: the same ``fake://name`` URL share one store (tests, CLI smokes).
_FAKES: dict[str, FakeStore] = {}
_FAKES_LOCK = threading.Lock()


def store_from_url(url: str | None, timeout: float = 5.0) -> ResultStore | None:
    """Build a store from a URL (``None``/empty/``"none"``: no store).

    Schemes: ``redis://[:password@]host[:port][/db]``,
    ``disk://`` (the local disk-cache root) or ``disk:///abs/path``,
    and ``fake://name`` (a process-shared in-memory fake -- tests and
    single-process smokes only).
    """
    if not url or url == "none":
        return None
    parts = urlsplit(url)
    if parts.scheme == "redis":
        return RedisStore.from_url(url, timeout=timeout)
    if parts.scheme == "disk":
        path = parts.path or ""
        root = path if path and path != "/" else None
        return DiskStore(root=root)
    if parts.scheme == "fake":
        name = parts.netloc or parts.path.strip("/") or "default"
        with _FAKES_LOCK:
            store = _FAKES.get(name)
            if store is None:
                store = FakeStore(name=name)
                _FAKES[name] = store
            return store
    raise StoreError(f"unknown store URL scheme: {url!r}")


def reset_fakes() -> None:
    """Drop the named-fake registry (tests use this)."""
    with _FAKES_LOCK:
        _FAKES.clear()


# -- the active store --------------------------------------------------------
#
# One process-wide store, installed by the serving layer at boot (or by
# tests): the store tier of the result chain (repro.experiments.results).
# Mirrors the obs registry/event-log pattern: a None store disables the
# tier.

_ACTIVE: ResultStore | None = None
_ACTIVE_LOCK = threading.Lock()


def set_active_store(store: ResultStore | None) -> None:
    """Install the process-wide shared store (None: disable the tier)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = store


def get_active_store() -> ResultStore | None:
    with _ACTIVE_LOCK:
        return _ACTIVE


def configure_from_env() -> ResultStore | None:
    """Install the store named by ``REPRO_SERVE_STORE`` (if any)."""
    store = store_from_url(os.environ.get("REPRO_SERVE_STORE"))
    set_active_store(store)
    return store


def degraded(op: str, error: Exception, **context) -> None:
    """Record one backend failure: metric + ``store_degraded`` event.

    Degradation is never fatal -- the caller computes locally -- but it
    must be *visible*: operators alert on ``serve_store_errors_total``
    and the event log says exactly which op failed for which key.
    """
    get_registry().counter(
        "serve_store_errors_total", "shared-store backend failures by op"
    ).inc(op=op)
    obs_events.emit(
        "store_degraded", op=op, error=f"{type(error).__name__}: {error}", **context
    )


# -- cross-node single-flight ------------------------------------------------


class _Heartbeat:
    """Renews a held lease on a background thread while compute runs.

    Cadence is TTL/3: a claimant misses two renewals before its lease
    can expire under it.  A failed renewal (lease lost or backend down)
    stops the heartbeat and marks the lease lost -- compute continues,
    because publishing a content-addressed value twice is harmless.
    """

    def __init__(self, store: ResultStore, key: str, owner: str, ttl: float) -> None:
        self._store = store
        self._key = key
        self._owner = owner
        self._ttl = ttl
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._lost = False
        self._thread = threading.Thread(
            target=self._run, name="repro-store-heartbeat", daemon=True
        )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._ttl)

    @property
    def lost(self) -> bool:
        with self._lock:
            return self._lost

    def _run(self) -> None:
        interval = max(self._ttl / 3.0, 0.01)
        while not self._stop.wait(interval):
            try:
                renewed = self._store.renew_lease(self._key, self._owner, self._ttl)
            except StoreError as error:
                degraded("renew_lease", error, key=self._key)
                renewed = False
            if not renewed:
                with self._lock:
                    self._lost = True
                return


def fetch_or_compute(
    store: ResultStore,
    key: str,
    compute: Callable[[], FrontendStats],
    *,
    owner: str | None = None,
    ttl: float = 30.0,
    wait_timeout: float = 120.0,
    poll_interval: float = 0.05,
    context: dict | None = None,
) -> tuple[FrontendStats, str]:
    """Cluster-wide single-flight around one content-addressed result.

    Returns ``(stats, outcome)`` with outcome one of:

    * ``"store"`` -- another replica (now or earlier) published the
      result; we never simulated.
    * ``"fresh"`` -- we won the lease CAS, computed, published.
    * ``"local"`` -- degraded local compute: the backend failed, or the
      publisher outwaited ``wait_timeout``.  The answer is still exact
      (simulation is deterministic); only the dedup was lost.

    The state machine (see DESIGN.md §14): probe result -> try lease ->
    holders compute under a heartbeat and publish before releasing;
    non-holders poll the result slot and retry the lease, which an
    expired (orphaned) claim lets them win -- takeover needs no extra
    protocol, acquire *is* takeover once the TTL lapses.

    ``compute`` failures propagate to the caller unchanged (after the
    lease is released so another replica can claim immediately).
    """
    context = context or {}
    owner = owner or default_owner()
    try:
        cached = store.get_result(key)
        if cached is not None:
            return cached, "store"
    except StoreError as error:
        degraded("get_result", error, key=key, **context)
        return compute(), "local"
    deadline = time.monotonic() + wait_timeout
    while True:
        try:
            acquired = store.acquire_lease(key, owner, ttl)
        except StoreError as error:
            degraded("acquire_lease", error, key=key, **context)
            return compute(), "local"
        if acquired:
            try:
                with _Heartbeat(store, key, owner, ttl):
                    stats = compute()
            except BaseException:
                try:
                    store.release_lease(key, owner)
                except StoreError:
                    pass
                raise
            try:
                store.put_result(key, stats)
                store.release_lease(key, owner)
            except StoreError as error:
                # The result is computed and correct; only the publish
                # failed.  Account it and answer -- the lease will age
                # out and another replica will republish.
                degraded("put_result", error, key=key, **context)
            return stats, "fresh"
        # Someone else holds the claim: wait for their publish.
        time.sleep(poll_interval)
        try:
            cached = store.get_result(key)
        except StoreError as error:
            degraded("get_result", error, key=key, **context)
            return compute(), "local"
        if cached is not None:
            return cached, "store"
        if time.monotonic() >= deadline:
            # Publisher is wedged past any plausible simulation time;
            # protect the request over the dedup.
            degraded(
                "wait_timeout",
                TimeoutError(f"no publish within {wait_timeout}s"),
                key=key,
                **context,
            )
            return compute(), "local"
