"""The served workloads: ``serve_warm`` and ``serve_cold``.

One single-process ``CarbonService`` runs in a child process
(:mod:`child`); this process is the only load generator. Two keep-alive
``ServiceClient``\\ s, one per tenant token, run a closed loop from two
threads (no more than the box's two CPUs). Each token carries a quota
set high enough never to reject, so admission, the usage ledger and the
tenant-salted store keys all do their work on every request.

* ``serve_warm``: every request is a ``/evaluate`` of a design from a
  pool that set-up computes into the store for both tenants, so every
  answer is a store hit and the engine does nothing.
* ``serve_cold``: a fresh store each run; every request is a ``/batch``
  of 32 points, mostly new designs (engine compute and ``store.put``),
  some repeating an earlier batch (store reads) or an earlier point of
  the same batch (dedup).

After the timed loop every answer is checked against the scalar oracle,
``serve_cold`` sends one fresh ``/optimize``, ``/montecarlo`` and
``/sweep`` round through the server and checks it too, and a count probe
replays the first requests of both clients against a fresh in-process
server twice, asserting the work counts repeat exactly.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from repro.service.client import ServiceClient
from repro.service.server import make_server
from repro.tenancy.quota import TenantQuota
from repro.tenancy.tokens import TokenRegistry

import explore
import inputs
from tracer import (
    CLIENT_PATCHES, CORE_PATCHES, ENGINE_COUNTS, SERVER_PATCHES, Tracer,
    repeat_counts, window_metrics,
)

HERE = Path(__file__).resolve().parent
TENANTS = ("tenant-a", "tenant-b")
#: Never binding: the quota path runs (bucket + ledger ceiling) but admits.
QUOTA = TenantQuota(rate_per_s=1e9, burst=1e9, max_requests=10**12)
POOL_SIZE = 64
SETUPS = 3
PROBE_WARM_REQUESTS = 32
PROBE_COLD_BATCHES = 4
#: Counts that depend on how the two clients interleave: kept, not asserted.
UNASSERTED = ("dispatcher.coalesced", "dispatcher.claim_waits")


def issue_tokens(path: Path) -> "list[str]":
    registry = TokenRegistry(str(path))
    try:
        return [
            registry.issue(tenant, tenant, quota=QUOTA)[0] for tenant in TENANTS
        ]
    finally:
        registry.close()


class ChildServer:
    """The service in a child process, driven over stdin/stdout lines."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.tokens_path = workdir / "tokens.sqlite3"
        self.tokens = issue_tokens(self.tokens_path)
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"),
             "--store", str(workdir / "store.sqlite3"),
             "--tokens", str(self.tokens_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self.process.stdout.readline().split()
        if not ready or ready[0] != "READY":
            self.kill()
            raise RuntimeError("the service child did not start")
        self.url = ready[1]
        self.clients = [
            ServiceClient(self.url, token=token, pool_size=1)
            for token in self.tokens
        ]

    def command(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the service child died on {name!r}")
        return json.loads(line)

    def stop(self) -> dict:
        for client in self.clients:
            client.close()
        try:
            final = self.command("stop")
            self.process.wait(timeout=60)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- studies over HTTP ---------------------------------------------------------


def study_requests(round_: inputs.StudyRound) -> dict:
    """The three study payloads of one round, by kind."""
    return {
        "optimize": {
            "type": "optimize", "design": round_.wire, "workload": "av",
            "wafer_diameters_mm": list(inputs.OPTIMIZE_WAFERS),
            "fab_locations": list(inputs.OPTIMIZE_LOCATIONS),
        },
        "montecarlo": {
            "type": "montecarlo", "design": round_.mc_wire, "workload": "av",
            "samples": inputs.MC_SAMPLES, "seed": round_.mc_seed,
        },
        "sweep": {
            "type": "sweep", "design": round_.wire, "workload": "av",
            "integrations": list(inputs.INTEGRATIONS),
            "fab_locations": list(inputs.SWEEP_LOCATIONS),
        },
    }


def served_round(client, seed: int, out: dict) -> None:
    """One fresh study round through the server, checked by the oracle."""
    round_ = inputs.StudyRound(seed, 1000)
    requests = study_requests(round_)
    envelopes = {
        kind: client.submit_payload(payload)
        for kind, payload in requests.items()
    }
    out["attempted"] += len(envelopes)
    for problems in (
        round_.check_optimize(envelopes["optimize"]["result"]),
        round_.check_monte_carlo(envelopes["montecarlo"]["result"]),
        round_.check_sweep([
            (entry["label"], entry["report"])
            for entry in envelopes["sweep"]["result"]
        ]),
    ):
        out["failed"] += bool(problems)
        out["problems"] += problems


# -- the closed loop -----------------------------------------------------------


class Traffic:
    """Per-client request sequences and the checks of their answers."""

    def __init__(self, warm: bool, seed: int, pool) -> None:
        self.warm = warm
        self.seed = seed
        self.pool = pool

    def sequence(self, client: int):
        """Endless (payload, expectation) pairs for one client."""
        if self.warm:
            rng = random.Random(f"warm-traffic-{self.seed}-{client}")
            while True:
                index = rng.randrange(len(self.pool))
                yield {"type": "evaluate", **self.pool[index].wire}, index
        else:
            stream = inputs.ColdStream(self.seed, client)
            while True:
                points, ids = stream.batch()
                yield {"type": "batch", "points": points}, (stream, ids)

    def points(self, expectation) -> int:
        return 1 if self.warm else len(expectation[1])

    def check(self, client: int, expectation, envelope, seen: set) -> bool:
        """Exact equality with the scalar report for every answer, plus
        the canonical digest on each point's first answer."""
        if self.warm:
            point = self.pool[expectation]
            pairs = [((client, expectation), point, "store", envelope)]
        else:
            stream, ids = expectation
            entries = envelope["result"]
            if len(entries) != len(ids):
                return False
            pairs = [
                ((client, index), stream.points[index], tag, entry)
                for (index, tag), entry in zip(ids, entries)
            ]
        for key, point, tag, answer in pairs:
            report = answer["result"] if self.warm else answer["report"]
            if answer.get("cache") != tag or report != point.expected():
                return False
            if key not in seen:
                seen.add(key)
                if inputs.digest(report) != inputs.digest(point.expected()):
                    return False
        return True


def drive(clients, traffic: Traffic, sequences, seconds: float) -> dict:
    """Both clients in a closed loop for ``seconds``; answers kept."""
    log = [[] for _ in clients]
    errors = []

    def loop(index: int) -> None:
        client, sequence, entries = clients[index], sequences[index], log[index]
        while perf_counter() < deadline:
            payload, expectation = next(sequence)
            start = perf_counter()
            try:
                envelope = client.submit_payload(payload)
            except Exception as error:  # noqa: BLE001 - counted as failed
                errors.append(f"{type(error).__name__}: {error}")
                envelope = None
            end = perf_counter()
            entries.append((end - start, expectation, envelope, end))

    threads = [
        threading.Thread(target=loop, args=(i,)) for i in range(len(clients))
    ]
    # The answers kept for the oracle are never garbage; with the cycle
    # collector on, its passes over them would stall the client threads
    # for longer and longer as the log grows.
    gc.collect()
    gc.disable()
    started = perf_counter()
    deadline = started + seconds
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return {"log": log, "errors": errors, "started": started}


def summarize_phase(traffic: Traffic, phase: dict) -> dict:
    return window_metrics(phase["started"], (
        (end, latency, traffic.points(expectation))
        for log in phase["log"] for latency, expectation, _, end in log
    ))


def verify_phase(traffic: Traffic, phase: dict, seen: set) -> int:
    failed = 0
    for client, entries in enumerate(phase["log"]):
        for _, expectation, envelope, _ in entries:
            if envelope is None or not traffic.check(
                client, expectation, envelope, seen
            ):
                failed += 1
    return failed


# -- the count probe -----------------------------------------------------------


def count_probe(traffic: Traffic, workdir: Path) -> dict:
    """Replay the first requests of both clients on a fresh server."""
    workdir.mkdir(parents=True)
    tokens = issue_tokens(workdir / "tokens.sqlite3")
    service = make_server(store_path=str(workdir / "store.sqlite3"),
                          tokens_path=str(workdir / "tokens.sqlite3"))
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    clients = [ServiceClient(service.url, token=t, pool_size=1) for t in tokens]
    tracer = Tracer()
    try:
        tracer.install(SERVER_PATCHES + CORE_PATCHES + CLIENT_PATCHES)
        if traffic.warm:
            for client in clients:
                for point in traffic.pool:
                    client.submit_payload({"type": "evaluate", **point.wire})
        sequences = [traffic.sequence(i) for i in range(len(clients))]
        steps = PROBE_WARM_REQUESTS if traffic.warm else PROBE_COLD_BATCHES
        for _ in range(steps):
            for client, sequence in zip(clients, sequences):
                client.submit_payload(next(sequence)[0])
        dispatcher = service.dispatcher
        stats = dispatcher.stats.as_dict()
        engine = dispatcher.evaluator.stats.as_dict()
        store = service.store.stats()
    finally:
        for client in clients:
            client.close()
        service.close()
        thread.join(timeout=30)
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    counts = {f"dispatcher.{k}": stats[k] for k in (
        "requests", "points", "computed", "store_hits", "deduplicated",
        "claims", "coalesced", "claim_waits",
    )}
    counts.update({f"engine.{k}": engine[k] for k in ENGINE_COUNTS})
    counts.update({
        "store.gets": store["hits"] + store["misses"],
        "store.hits": store["hits"],
        "store.puts": tracer.counts["store.put"],
        "store.entries": store["entries"],
        "tenancy.usage_writes": tracer.counts["usage.record"],
        "client.connections_opened": tracer.counts["client.connect"],
    })
    return counts


# -- the workload --------------------------------------------------------------


def setup(warm: bool, pool, workdir: Path):
    """Start the service and (``serve_warm``) fill its store."""
    server = ChildServer(workdir)
    fill = []
    try:
        if warm:
            for client in server.clients:
                fill.extend(
                    (index, client.submit_payload(
                        {"type": "evaluate", **point.wire}
                    ))
                    for index, point in enumerate(pool)
                )
    except BaseException:
        server.kill()
        raise
    return server, fill


def run(name: str, seed: int, seconds: float, trace: bool, workroot: Path):
    warm = name == "serve_warm"
    pool = inputs.warm_pool(seed, POOL_SIZE) if warm else []
    traffic = Traffic(warm, seed, pool)
    out = {"problems": [], "attempted": 0, "failed": 0}

    # Set-up, several times; the last server stays up for the run.
    setup_times = []
    for attempt in range(SETUPS):
        if attempt:
            server.stop()
        start = perf_counter()
        server, fill = setup(warm, pool, workroot / f"setup{attempt}")
        setup_times.append(perf_counter() - start)
    out["setup_s"] = statistics.median(setup_times)
    out["setup_runs_s"] = setup_times
    try:
        out["attempted"] += len(fill)
        out["failed"] += sum(
            envelope["result"] != pool[index].expected()
            for index, envelope in fill
        )

        sequences = [traffic.sequence(i) for i in range(len(server.clients))]
        if trace:
            phases = [drive(server.clients, traffic, sequences, seconds / 2)]
            out["counters_untraced"] = server.command("mark")
            server.command("trace")
            client_tracer = Tracer()
            client_tracer.install(CLIENT_PATCHES)
            try:
                phases.append(
                    drive(server.clients, traffic, sequences, seconds / 2)
                )
            finally:
                client_tracer.uninstall()
            out["client_trace"] = client_tracer.summary()
            out["counters"] = server.command("mark")
        else:
            phases = [drive(server.clients, traffic, sequences, seconds)]
        if not warm:
            served_round(server.clients[0], seed, out)
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    out["peak_rss_mb"] = final["peak_rss_mb"]
    out["server_trace"] = final["trace"]

    # Outside the timed region: every answer against the scalar oracle.
    seen: set = set()
    for phase in phases:
        out["attempted"] += sum(len(entries) for entries in phase["log"])
        phase_failed = verify_phase(traffic, phase, seen)
        out["failed"] += phase_failed
        if phase_failed:
            out["problems"].append(f"{phase_failed} served answers were wrong")
        out["problems"] += phase["errors"][:3]
    out["phases"] = [summarize_phase(traffic, phase) for phase in phases]

    out["counts"] = repeat_counts(
        lambda i: count_probe(Traffic(warm, seed, pool),
                              workroot / f"probe{i}"),
        out["problems"], UNASSERTED,
    )
    if trace and not warm:
        # The study layers (vec, analysis, uncertainty, api) have no work
        # in the served loop; one traced in-process round measures them.
        out["study"] = explore.traced_round(seed)
        out["attempted"] += 3
        out["failed"] += bool(out["study"]["problems"])
        out["problems"] += out["study"]["problems"]
        out["counts"].update(
            (key, value) for key, value in out["study"]["counts"].items()
            if key.startswith("vec.")
        )
    return out
