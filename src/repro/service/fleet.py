"""Pre-forked multi-worker front end for the carbon service.

``ServiceFleet`` scales the single-process :class:`CarbonService`
horizontally on one host: the parent binds the listening socket **once**
and forks N workers, each running the unmodified threaded handler loop
over the shared socket (the kernel load-balances ``accept`` across
them). Binding before forking means there is no readiness race — a
client connecting the instant :meth:`start` returns simply queues in the
listen backlog until a worker accepts.

**Supervision.** The parent never serves; it watches its children with
per-pid ``waitpid(WNOHANG)`` polls (never ``waitpid(-1)``, which would
steal children forked elsewhere in the process) and refills a dead slot
with a fresh fork. Restarts stop once shutdown begins.

**Shutdown.** :meth:`close` fans SIGTERM out to every worker; each
worker's handler triggers the existing graceful drain (stop admitting,
finish in-flight, persist to the store, release). Workers that outlive
the drain budget are SIGKILLed and reaped, so ``close`` always returns
and never leaks zombies.

**Shared state.** Workers share nothing in memory — each builds its own
:class:`CarbonService` (and its own SQLite connection) *after* the fork.
Cross-worker dedup rides on the store's claim rows (see
:mod:`repro.service.store`): concurrent identical requests on different
workers still compute exactly once. An in-memory fleet (no
``store_path``) serves fine but loses that guarantee — each worker
dedups only within itself.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
import traceback

from .server import CarbonService

#: Upper bound on ``--workers auto`` (past a point more workers only
#: add contention for the shared socket and store).
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """Workers for ``--workers auto``: the usable CPU count.

    Respects the scheduler affinity mask (container CPU limits), capped
    at :data:`MAX_DEFAULT_WORKERS`. On a single-CPU host this is 1.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        usable = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_WORKERS, usable))


def resolve_worker_count(workers) -> int:
    """``--workers N|auto`` → a positive int (auto = usable CPUs)."""
    if workers in (None, "auto"):
        return default_worker_count()
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return count


class ServiceFleet:
    """Parent-side handle: bound socket, worker pids, supervision."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: "int | str | None" = 2,
        poll_interval_s: float = 0.2,
        drain_timeout_s: float = 10.0,
        backlog: int = 128,
        **server_kwargs,
    ) -> None:
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
            raise RuntimeError("ServiceFleet requires os.fork (POSIX)")
        self.host = host
        self.port = port
        self.workers = resolve_worker_count(workers)
        self.poll_interval_s = poll_interval_s
        self.drain_timeout_s = drain_timeout_s
        self.backlog = backlog
        self.server_kwargs = server_kwargs
        self.socket: "socket.socket | None" = None
        #: worker index → live child pid
        self.pids: "dict[int, int]" = {}
        #: dead workers refilled by supervision (test/ops visibility)
        self.restarts = 0
        self._stopping = threading.Event()
        self._supervisor: "threading.Thread | None" = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self, supervise: bool = True) -> "ServiceFleet":
        """Bind once, fork all workers, begin supervising."""
        self.socket = socket.create_server(
            (self.host, self.port), backlog=self.backlog
        )
        # Every worker selects on this socket, and one connection wakes
        # them all. On a blocking socket the workers that lose the race
        # block in accept(), and SIGTERM's shutdown() waits on them for
        # good; non-blocking, they get BlockingIOError, which the serve
        # loop drops, and go back to select().
        self.socket.setblocking(False)
        self.port = self.socket.getsockname()[1]
        for index in range(self.workers):
            self._spawn(index)
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="carbon3d-fleet", daemon=True
            )
            self._supervisor.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def alive(self) -> "list[int]":
        """Live worker pids (snapshot)."""
        with self._lock:
            return sorted(self.pids.values())

    def _spawn(self, index: int) -> int:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - exercised via forked children
            status = 1
            try:
                self._worker_main(index)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        with self._lock:
            self.pids[index] = pid
        return pid

    def _worker_main(self, index: int) -> None:
        """Child body: fresh server over the inherited socket, then drain.

        Everything process-local is rebuilt after the fork — the
        ``CarbonService``, its dispatcher, metrics registry (tagged
        ``worker=<index>``), and, crucially, the SQLite connection
        (``store_path`` in ``server_kwargs``; sharing a parent
        connection across a fork is undefined in SQLite).
        """
        server = CarbonService(
            listen_socket=self.socket,
            worker_index=index,
            **self.server_kwargs,
        )

        def _drain(signum, frame):
            # shutdown() blocks until the serve loop exits; hand it to a
            # helper thread, then serve_forever's finally drains.
            threading.Thread(
                target=server.shutdown,
                name="carbon3d-worker-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            server.serve_forever()
        finally:
            server.close()

    # -- supervision --------------------------------------------------------

    def poll(self) -> "list[int]":
        """Reap dead workers; refill their slots unless stopping.

        Returns the indices restarted this call. Per-pid
        ``waitpid(WNOHANG)`` keeps this safe to run from a thread in a
        process that also forks children elsewhere.
        """
        with self._lock:
            entries = list(self.pids.items())
        restarted = []
        for index, pid in entries:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done == 0:
                continue
            with self._lock:
                if self.pids.get(index) == pid:
                    del self.pids[index]
            if not self._stopping.is_set():
                self._spawn(index)
                self.restarts += 1
                restarted.append(index)
        return restarted

    def _supervise(self) -> None:
        while not self._stopping.wait(self.poll_interval_s):
            self.poll()

    def request_stop(self) -> None:
        """Flag shutdown (signal-handler safe); ``wait`` then returns."""
        self._stopping.set()

    def wait(self) -> None:
        """Block until :meth:`request_stop` or :meth:`close` is called."""
        self._stopping.wait()

    # -- shutdown -----------------------------------------------------------

    def close(self) -> None:
        """SIGTERM fan-out → bounded graceful drain → SIGKILL stragglers."""
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        with self._lock:
            entries = list(self.pids.items())
            self.pids.clear()
        for _index, pid in entries:
            try:
                os.kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):
                pass
        deadline = time.monotonic() + self.drain_timeout_s
        for _index, pid in entries:
            if not self._reap(pid, deadline):
                sys.stderr.write(
                    f"[carbon3d] fleet worker {pid} outlived the "
                    f"{self.drain_timeout_s}s drain budget; killing\n"
                )
                try:
                    os.kill(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass
                self._reap(pid, time.monotonic() + 5.0)
        if self.socket is not None:
            self.socket.close()
            self.socket = None

    @staticmethod
    def _reap(pid: int, deadline: float) -> bool:
        """Wait for ``pid`` until ``deadline``; True once reaped."""
        while True:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return True
            if done != 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def __enter__(self) -> "ServiceFleet":
        if self.socket is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
