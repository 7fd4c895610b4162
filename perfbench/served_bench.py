"""Open-loop served workload: ``served_open``.

MC-2, Men-2 and CL-2 (50 objects each) are served through
:class:`~repro.serving.AsyncFrontDoor` over
``ClusterFrontend(shards=1, replication=1)`` with the default op log,
which fsyncs every update before acking it. This process hosts the
front door and cluster frontend; the shard is the second busy process.

Independent users do not wait for each other, so the load is an open
loop on one connection: this thread sends single frames on a seeded
Poisson schedule at a fixed offered rate, and a receiver thread matches
replies by request id. Every latency is timed from when the request was
*due*, so a stall (an fsync, a GC pause) also shows as queueing in the
requests behind it. The offered rate, 200 events/s, is well below the
rate this stack sustains when pipelined on a 2-CPU box (about 1.2-1.8k
events/s): at 600/s the parent process's threads already queue behind
each other and the tail measures host noise more than the stack.

The traced run sends the second half of the schedule with a sampled
share of requests carrying ``trace=`` and ``include_stats=True``; each
serving layer's self time is its span minus its child's span.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import socket
import threading
import time
from pathlib import Path
from time import perf_counter

from repro import VIPTree
from repro.datasets import load_venue, multi_venue_streams, random_objects, random_point
from repro.serving import AsyncFrontDoor, ClusterFrontend, Request, VenueRouter, sequential_replay
from repro.serving.protocol import (
    _HEADER,
    ErrorResponse,
    decode_frame,
    encode_frame,
    reply_from_doc,
    request_to_doc,
    result_to_doc,
)
from repro.storage import SnapshotCatalog

from common import (Tally, end_to_end, median, peak_rss_mb, percentile, process_peak_rss_mb,
                    ratio, tails)

VENUES = ("MC-2", "Men-2", "CL-2")
N_OBJECTS = 50
#: offered events per second (well below the pipelined saturation rate)
OFFERED_RATE = {"small": 200.0, "tiny": 150.0}
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: untimed kNN queries per venue before the schedule starts, so the
#: kernels' lazy per-leaf programs are built before timing
WARM_QUERIES = {"small": 300, "tiny": 40}
#: share of the traced half's requests that carry a trace id
TRACE_SHARE = 0.25
#: how long replies may trail the last send before they count as timed out
DRAIN_S = 30.0
#: seconds the connection waits on one read before checking for a stop
_POLL_S = 1.0


class _Stopped(Exception):
    """The receiver was told to stop while waiting for a frame."""


def _read_exact(sock, n: int, stop: threading.Event) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            if stop.is_set():
                raise _Stopped from None
            continue
        if not chunk:
            raise ConnectionError("front door closed the connection")
        buf += chunk
    return bytes(buf)


class Stack:
    """One served deployment: catalog, shard cluster, front door and
    one client connection. :meth:`close` tears down whatever started."""

    def __init__(self) -> None:
        self.cluster = None
        self.door = None
        self.sock = None
        self.ids: list[str] = []
        self.shard_pids: list[int] = []

    def send(self, request: Request, request_id: int) -> float:
        """Encode and write one frame; returns the encode seconds."""
        start = perf_counter()
        frame = encode_frame(request_to_doc(request, request_id))
        took = perf_counter() - start
        self.sock.sendall(frame)
        return took

    def recv(self, stop: threading.Event):
        """``(reply, arrival time, decode seconds)`` of the next frame."""
        (length,) = _HEADER.unpack(_read_exact(self.sock, _HEADER.size, stop))
        payload = _read_exact(self.sock, length, stop)
        arrived = perf_counter()
        reply = reply_from_doc(decode_frame(payload))
        return reply, arrived, perf_counter() - arrived

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.sock.close()
        if self.door is not None:
            self.door.stop(timeout=10.0)
        if self.cluster is not None:
            self.cluster.shutdown(timeout=10.0)
        for child in multiprocessing.active_children():  # ignored shutdown
            child.kill()
            child.join(10.0)


def _venues(profile: str, seed: int):
    out = []
    for i, name in enumerate(VENUES):
        space = load_venue(name, profile)
        out.append((space, random_objects(space, N_OBJECTS, seed=seed + i)))
    return out


def start_stack(root: Path, profile: str, seed: int) -> tuple[Stack, float]:
    """Venue generation, catalog build, shard spawn, warm start and the
    first answer per venue — what ``setup_s`` times."""
    begin = perf_counter()
    stack = Stack()
    try:
        venues = _venues(profile, seed)
        catalog = SnapshotCatalog(root)
        for space, objects in venues:
            catalog.save(VIPTree.build(space), objects)
        stack.cluster = ClusterFrontend(root, shards=1, replication=1).start()
        stack.ids = [stack.cluster.add_venue(s, objects=o) for s, o in venues]
        stack.shard_pids = [doc["pid"] for doc in stack.cluster.shard_stats()]
        stack.door = AsyncFrontDoor(stack.cluster).start()
        stack.sock = socket.create_connection(stack.door.address, timeout=_POLL_S)
        stack.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rng = random.Random(seed)
        stop = threading.Event()
        for (space, _), vid in zip(venues, stack.ids):
            stack.send(Request(venue=vid, kind="knn", source=random_point(space, rng), k=5), 0)
            reply, _, _ = stack.recv(stop)
            if isinstance(reply, ErrorResponse):
                raise RuntimeError(f"first answer failed: {reply.error}: {reply.message}")
    except BaseException:
        stack.close()
        raise
    return stack, perf_counter() - begin


def _warm(stack: Stack, profile: str, seed: int) -> None:
    rng = random.Random(seed + 5)
    stop = threading.Event()
    sent = 0
    for (space, _), vid in zip(_venues(profile, seed), stack.ids):
        for _ in range(WARM_QUERIES[profile]):
            stack.send(Request(venue=vid, kind="knn", source=random_point(space, rng), k=5), sent)
            sent += 1
    for _ in range(sent):
        reply, _, _ = stack.recv(stop)
        if isinstance(reply, ErrorResponse):
            raise RuntimeError(f"warm-up query failed: {reply.error}: {reply.message}")


def _schedule(seed: int, rate: float, seconds: float, n_venues: int):
    """Seeded Poisson arrivals: ``[(due seconds, venue index)]``."""
    rng = random.Random(seed)
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        out.append((t, rng.randrange(n_venues)))


class _Receiver(threading.Thread):
    """Reads replies until ``expected`` arrived or it is stopped."""

    def __init__(self, stack: Stack, expected: int) -> None:
        super().__init__(name="perfbench-receiver", daemon=True)
        self.stack = stack
        self.expected = expected
        self.stop = threading.Event()
        self.replies: dict[int, object] = {}
        self.arrived: dict[int, float] = {}
        self.decode_s: dict[int, float] = {}
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            while len(self.replies) < self.expected:
                reply, arrived, decode = self.stack.recv(self.stop)
                self.replies[reply.request_id] = reply
                self.arrived[reply.request_id] = arrived
                self.decode_s[reply.request_id] = decode
        except _Stopped:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            self.error = exc


def _counter(metrics: dict, name: str) -> float:
    return sum(v["value"] for v in metrics["counters"].values() if v["name"] == name)


def _histogram(metrics: dict, name: str) -> dict:
    found = [h for h in metrics["histograms"].values() if h["name"] == name]
    if len(found) != 1:
        raise RuntimeError(f"expected one {name} histogram, found {len(found)}")
    return found[0]


def run(*, seed: int, seconds: float, trace: bool, profile: str = "small",
        workdir: Path) -> dict:
    rate = OFFERED_RATE[profile]
    setups = []
    stack = None
    try:
        for rep in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
            stack, took = start_stack(workdir / f"catalog{rep}", profile, seed)
            setups.append(took)
        warm_start_s = _histogram(stack.cluster.metrics(), "router_warm_start_seconds")["sum"]
        _warm(stack, profile, seed)
        base = stack.cluster.metrics()

        schedule = _schedule(seed + 10, rate, seconds, len(VENUES))
        counts = [0] * len(VENUES)
        for _, vi in schedule:
            counts[vi] += 1
        streams = multi_venue_streams(_venues(profile, seed), max(counts),
                                      update_ratio=0.125, pool=32, seed=seed + 20)
        sample = random.Random(seed + 30)
        requests, where = [], []
        cursor = [0] * len(VENUES)
        for due, vi in schedule:
            request = Request.from_event(stack.ids[vi], streams[vi][cursor[vi]])
            if trace and due >= seconds / 2 and sample.random() < TRACE_SHARE:
                request = dataclasses.replace(request, trace=f"{len(requests):x}",
                                              include_stats=True)
            requests.append(request)
            where.append((vi, cursor[vi]))
            cursor[vi] += 1

        receiver = _Receiver(stack, len(requests))
        receiver.start()
        sent_at: list[float] = []
        lag: list[float] = []
        encode_s: list[float] = []
        t0 = perf_counter() + 0.01
        try:
            for i, ((due, _), request) in enumerate(zip(schedule, requests)):
                target = t0 + due
                delay = target - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                now = perf_counter()
                lag.append(now - target)
                sent_at.append(now)
                encode_s.append(stack.send(request, i))
            receiver.join(DRAIN_S)
        finally:
            receiver.stop.set()
            receiver.join(_POLL_S * 3)
        if receiver.is_alive():
            raise RuntimeError("receiver thread did not stop")
        if receiver.error is not None:
            raise RuntimeError(f"receiver failed: {receiver.error!r}")

        final = stack.cluster.metrics()
        rss = peak_rss_mb() + sum(process_peak_rss_mb(p) for p in stack.shard_pids)
    finally:
        if stack is not None:
            stack.close()

    # ------------------------------------------------------------------
    # Outcomes, then the check against a sequential in-process replay
    # ------------------------------------------------------------------
    tally = Tally()
    query_us, update_us = [], []
    latency_us: dict[int, float] = {}
    first_error = None
    for i, request in enumerate(requests):
        reply = receiver.replies.get(i)
        kind = request.kind
        ok = reply is not None and not isinstance(reply, ErrorResponse)
        tally.add(kind, ok)
        if not ok:
            if first_error is None:
                first_error = (f"{kind}: timed out" if reply is None
                               else f"{kind}: {reply.error}: {reply.message}")
            continue
        took = (receiver.arrived[i] - (t0 + schedule[i][0])) * 1e6
        latency_us[i] = took
        (update_us if kind == "update" else query_us).append(took)

    problems = []
    router = VenueRouter(SnapshotCatalog(workdir / "replay"), capacity=len(VENUES) + 1)
    for space, objects in _venues(profile, seed):
        router.add_venue(space, objects=objects)
    keyed = {vid: streams[vi][:counts[vi]] for vi, vid in enumerate(stack.ids)}
    expected, _ = sequential_replay(router, keyed)
    diverged = [i for i, (vi, at) in enumerate(where)
                if i in receiver.replies
                and not isinstance(receiver.replies[i], ErrorResponse)
                and receiver.replies[i].result
                != result_to_doc(expected[stack.ids[vi]][at])]
    if diverged:
        problems.append(f"{len(diverged)} replies differ from the sequential "
                        f"in-process replay (first at request {diverged[0]})")

    done = [receiver.arrived[i] for i in receiver.arrived]
    notes = [f"served_open: {len(requests)} requests offered at {rate:g}/s, "
             f"{len(query_us)} query and {len(update_us)} update latency samples",
             *tally.lines()]
    if first_error:
        notes.append(f"first failure: {first_error}")
    if trace:
        metrics = _layer_metrics(requests, schedule, receiver, sent_at, encode_s,
                                 lag, base, final, warm_start_s, t0, seconds)
        untraced = [i for i, (due, _) in enumerate(schedule) if due < seconds / 2]
        metrics.update(tails([latency_us[i] for i in untraced
                              if i in latency_us and requests[i].kind != "update"],
                             [latency_us[i] for i in untraced
                              if i in latency_us and requests[i].kind == "update"]))
    else:
        metrics = end_to_end(
            setup_s=median(setups), events_per_s=len(done) / (max(done) - t0),
            query_us=query_us, update_us=update_us,
            attempted=tally.total, failed=tally.total_failed, rss_mb=rss)
    return {"metrics": metrics, "attempted": tally.total,
            "failed": tally.total_failed, "problems": problems, "notes": notes}


def _layer_metrics(requests, schedule, receiver, sent_at, encode_s, lag, base,
                   final, warm_start_s, t0, seconds) -> dict:
    us = 1e6
    phase = {False: [0, 0.0], True: [0, 0.0]}  # traced half? -> [events, last arrival]
    selves = {k: [] for k in ("frontdoor", "cluster", "shard", "router", "engine")}
    stats = {"computed": 0, "same_leaf": 0, "nodes_visited": 0,
             "list_entries_scanned": 0, "pairs_considered": 0}
    traced_encode, traced_decode = [], []
    for i, request in enumerate(requests):
        reply = receiver.replies.get(i)
        if reply is None:
            continue
        second = schedule[i][0] >= seconds / 2
        phase[second][0] += 1
        phase[second][1] = max(phase[second][1], receiver.arrived[i])
        if request.trace is None or isinstance(reply, ErrorResponse):
            continue
        traced_encode.append(encode_s[i])
        traced_decode.append(receiver.decode_s[i])
        spans = {s["name"]: s["seconds"] for s in reply.trace["spans"]}
        kind = request.kind
        if f"engine.{kind}" in spans:
            rtt = receiver.arrived[i] - sent_at[i]
            selves["frontdoor"].append(rtt - spans["frontend.total"])
            selves["cluster"].append(spans["frontend.total"] - spans[f"shard.{kind}"])
            selves["shard"].append(spans[f"shard.{kind}"] - spans[f"router.{kind}"])
            selves["router"].append(spans[f"router.{kind}"] - spans[f"engine.{kind}"])
            selves["engine"].append(spans[f"engine.{kind}"])
        if reply.stats is not None and not reply.stats["cache_hit"]:
            stats["computed"] += 1
            for key in ("same_leaf", "nodes_visited", "list_entries_scanned",
                        "pairs_considered"):
                stats[key] += int(reply.stats[key])

    def delta(name):
        return _counter(final, name) - _counter(base, name)

    hits = sum(delta(f"engine_{k}_hits_total") for k in ("distance", "path", "knn", "range"))
    misses = sum(delta(f"engine_{k}_misses_total") for k in ("distance", "path", "knn", "range"))
    ctx_hits = sum(delta(f"engine_{k}_hits_total") for k in ("endpoint", "climb", "search"))
    ctx_misses = sum(delta(f"engine_{k}_misses_total") for k in ("endpoint", "climb", "search"))
    inval = _histogram(final, "engine_invalidation_seconds")
    oplog = _histogram(final, "oplog_append_seconds")
    untraced_eps = phase[False][0] / (phase[False][1] - t0)
    traced_eps = phase[True][0] / (phase[True][1] - (t0 + seconds / 2))
    computed = stats["computed"]

    def p50(samples):
        return percentile(samples, 0.5) * us

    return {
        "core.same_leaf_share": ratio(stats["same_leaf"], computed),
        "core.nodes_visited": ratio(stats["nodes_visited"], computed),
        "core.list_entries_scanned": ratio(stats["list_entries_scanned"], computed),
        "core.pairs_considered": ratio(stats["pairs_considered"], computed),
        "engine.result_hit_ratio": ratio(hits, hits + misses),
        "engine.context_hit_ratio": ratio(ctx_hits, ctx_hits + ctx_misses),
        "engine.invalidation_us_p50": inval["p50"] * us,
        "engine.invalidation_us_p99": inval["p99"] * us,
        "engine.entries_dropped_per_update": ratio(
            delta("engine_invalidation_entries_dropped_total"), delta("engine_updates_total")),
        "storage.oplog_append_us_p50": oplog["p50"] * us,
        "storage.oplog_append_us_p99": oplog["p99"] * us,
        "storage.warm_start_s": warm_start_s,
        "serving.frontdoor_self_us": p50(selves["frontdoor"]),
        "serving.cluster_self_us": p50(selves["cluster"]),
        "serving.shard_self_us": p50(selves["shard"]),
        "serving.router_self_us": p50(selves["router"]),
        "serving.engine_us": p50(selves["engine"]),
        "serving.protocol_encode_us": p50(traced_encode),
        "serving.protocol_decode_us": p50(traced_decode),
        "bench.gen_lag_p99_us": percentile(lag, 0.99) * us,
        "bench.trace_eps_ratio": traced_eps / untraced_eps,
    }
