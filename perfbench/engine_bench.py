"""Closed-loop engine workloads: ``engine_miss`` and ``engine_hot_moving``.

One caller drives a default :class:`~repro.engine.QueryEngine` (numpy
kernels, caches on, scoped invalidation, no registry) over Men-2 with 50
objects, waiting for each answer before sending the next event.

A run draws ``INPUT_SETS`` seeded input sets (objects and stream) from
its seed and replays them in *passes*, cycling through the sets, so
one run averages over several draws of the inputs. Each pass starts
from a fresh engine over the same built tree and a fresh copy of its
set's objects, so passes over one set do exactly the same work; runs
end on a cycle boundary, which makes counts equal between runs of one
seed. The kernel backend instance is shared across passes, because its
per-leaf programs are lazy set-up a long-lived engine pays once, not
per query; one untimed warm-up pass per set fills them before timing.

The traced run (``--trace 1``) alternates untraced and traced passes.
Traced passes time calls into each layer's public functions from
outside: the kernel instance's ``knn_full``/``range_full``, the graph
layer's ``dijkstra`` as the core query modules call it, the object
index's ``apply``, and the result caches' ``put``/``invalidate_leaves``
(the one place the benchmark reaches into the engine: it swaps the
engine's two tagged result caches for timed subclasses before the
first query). Per-query ``QueryStats`` come through the engine's
``stats=`` out-parameter.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import repro.core.query_distance as query_distance
import repro.core.query_knn as query_knn
import repro.core.query_path as query_path
from repro import VIPTree
from repro.baselines import DijkstraOracle
from repro.core.results import QueryStats
from repro.datasets import load_venue, mixed_queries, moving_objects, random_objects, random_point
from repro.engine import QueryEngine, TaggedLRUCache
from repro.model.objects import UpdateOp
from repro.serving.protocol import result_to_doc

from common import Tally, Timed, end_to_end, mean, median, peak_rss_mb, percentile, ratio, tails

VENUE = "Men-2"
N_OBJECTS = 50
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: independently seeded input sets (objects + stream) a run cycles
#: through, so one run's figures average over several draws of the inputs
INPUT_SETS = 4
#: queries per input set checked against the oracle (seeded sample)
ORACLE_SAMPLE = 12
#: the tier-1 tests' tolerance for oracle distances
TOL = 1e-9
#: every endpoint fresh: kNN k=25 60%, range 15%, distance 15%, path 10%
MISS_MIX = {"knn": 0.60, "range": 0.15, "distance": 0.15, "path": 0.10}
#: object moves timed on each ``engine_miss`` pass's fresh engine before
#: its queries: the workload's update figures, outside ``events_per_s``
MISS_PROBE_UPDATES = {"small": 100, "tiny": 10}

_DIJKSTRA_USERS = (query_knn, query_distance, query_path)


@dataclass(frozen=True)
class EngineWorkload:
    #: stream events per pass, by venue profile
    pass_events: dict[str, int]
    make_stream: Callable
    #: object moves timed before each pass's stream (0: the stream has updates)
    probe_updates: dict[str, int]


def _miss_stream(space, objects, tree, count, seed):
    return mixed_queries(space, count, MISS_MIX, seed=seed, pool=None, k=25,
                         d2d=tree.d2d)


def _relocations(space, objects, count, seed):
    """``count`` moves of random objects to uniformly random points —
    nearly all cross-leaf, so their latency has one mode, not a
    same-leaf and a cross-leaf one with the median between them."""
    rng = random.Random(seed)
    ids = sorted(o.object_id for o in objects)
    return [UpdateOp("move", object_id=rng.choice(ids), location=random_point(space, rng))
            for _ in range(count)]


def _hot_stream(space, objects, tree, count, seed):
    return moving_objects(space, objects, count, update_ratio=0.125,
                          churn=0.05, pool=32, k=10, seed=seed, d2d=tree.d2d)


WORKLOADS = {
    "engine_miss": EngineWorkload(
        {"small": 1000, "tiny": 60}, _miss_stream, MISS_PROBE_UPDATES),
    "engine_hot_moving": EngineWorkload(
        {"small": 2500, "tiny": 120}, _hot_stream, {"small": 0, "tiny": 0}),
}


def answer(engine, event, stats=None):
    """Send one stream event to ``engine`` and return its answer."""
    if isinstance(event, UpdateOp):
        return engine.update(event)
    kind = event.kind
    if kind == "knn":
        return engine.knn(event.source, event.k, stats=stats)
    if kind == "range":
        return engine.range_query(event.source, event.radius, stats=stats)
    if kind == "distance":
        return engine.distance(event.source, event.target, stats=stats)
    if kind == "path":
        return engine.path(event.source, event.target, stats=stats)
    raise ValueError(f"unknown event kind {kind!r}")


# ----------------------------------------------------------------------
# Per-layer instruments (traced passes only)
# ----------------------------------------------------------------------
class _TimedTaggedCache(TaggedLRUCache):
    """A result cache that times ``put``/``invalidate_leaves`` and reads
    each new entry's tag back through ``leaves_of``."""

    def __init__(self, maxsize: int, layers: "LayerSamples") -> None:
        super().__init__(maxsize)
        self.layers = layers

    def put(self, key, value, leaves):
        start = perf_counter()
        super().put(key, value, leaves)
        self.layers.cache_put_s.append(perf_counter() - start)
        tag = self.leaves_of(key)
        self.layers.tag_sizes.append(self.layers.n_leaves if tag is None else len(tag))

    def invalidate_leaves(self, leaf_ids):
        start = perf_counter()
        dropped = super().invalidate_leaves(leaf_ids)
        self.layers.inval_pending += perf_counter() - start
        return dropped


class LayerSamples:
    """Everything the traced passes of one run record."""

    def __init__(self, n_leaves: int) -> None:
        self.n_leaves = n_leaves
        self.passes = 0
        self.events = 0
        self.seconds = 0.0
        self.knn_full_s: list[float] = []
        self.range_full_s: list[float] = []
        self.dijkstra_s: list[float] = []
        self.apply_s: list[float] = []
        self.cache_put_s: list[float] = []
        self.tag_sizes: list[int] = []
        self.inval_s: list[float] = []
        self.inval_pending = 0.0
        self.computed = 0
        self.same_leaf = 0
        self.nodes_visited = 0
        self.list_entries_scanned = 0
        self.pairs_considered = 0
        self.result_hits = self.result_lookups = 0
        self.context_hits = self.context_lookups = 0
        self.updates = self.dropped = 0

    def add_stats(self, qs: QueryStats) -> None:
        if qs.cache_hit:
            return
        self.computed += 1
        self.same_leaf += qs.same_leaf
        self.nodes_visited += qs.nodes_visited
        self.list_entries_scanned += qs.list_entries_scanned
        self.pairs_considered += qs.pairs_considered

    def add_engine(self, engine) -> None:
        s = engine.stats()
        self.result_hits += s.hits
        self.result_lookups += s.hits + s.misses
        ctx_hits = s.endpoint_hits + s.climb_hits + s.search_hits
        self.context_hits += ctx_hits
        self.context_lookups += (ctx_hits + s.endpoint_misses
                                 + s.climb_misses + s.search_misses)
        self.updates += s.updates
        self.dropped += s.invalidation_entries_dropped

    def metrics(self) -> dict:
        us = 1e6
        per_pass = max(self.passes, 1)
        return {
            "kernels.knn_full_us": percentile(self.knn_full_s, 0.5) * us if self.knn_full_s else 0.0,
            "kernels.range_full_us": percentile(self.range_full_s, 0.5) * us if self.range_full_s else 0.0,
            "kernels.calls": (len(self.knn_full_s) + len(self.range_full_s)) / per_pass,
            "graph.dijkstra_calls": len(self.dijkstra_s) / per_pass,
            "graph.dijkstra_us": percentile(self.dijkstra_s, 0.5) * us if self.dijkstra_s else 0.0,
            "core.same_leaf_share": ratio(self.same_leaf, self.computed),
            "core.nodes_visited": ratio(self.nodes_visited, self.computed),
            "core.list_entries_scanned": ratio(self.list_entries_scanned, self.computed),
            "core.pairs_considered": ratio(self.pairs_considered, self.computed),
            "core.object_index_apply_us": percentile(self.apply_s, 0.5) * us if self.apply_s else 0.0,
            "engine.result_hit_ratio": ratio(self.result_hits, self.result_lookups),
            "engine.context_hit_ratio": ratio(self.context_hits, self.context_lookups),
            "engine.cache_put_us": percentile(self.cache_put_s, 0.5) * us if self.cache_put_s else 0.0,
            "engine.tag_leaves_per_entry": mean(self.tag_sizes),
            "engine.invalidation_us_p50": percentile(self.inval_s, 0.5) * us if self.inval_s else 0.0,
            "engine.invalidation_us_p99": percentile(self.inval_s, 0.99) * us if self.inval_s else 0.0,
            "engine.entries_dropped_per_update": ratio(self.dropped, self.updates),
        }


@contextmanager
def _instrumented(kernels, layers: LayerSamples):
    """Time the kernel instance's whole-query kernels and the graph
    layer's Dijkstra as the core query modules call it."""
    knn = Timed(kernels.knn_full)
    rng = Timed(kernels.range_full)
    original = query_knn.dijkstra
    dijkstra = Timed(original)
    kernels.knn_full, kernels.range_full = knn, rng
    for module in _DIJKSTRA_USERS:
        module.dijkstra = dijkstra
    try:
        yield
    finally:
        del kernels.knn_full, kernels.range_full
        for module in _DIJKSTRA_USERS:
            module.dijkstra = original
        layers.knn_full_s += knn.seconds
        layers.range_full_s += rng.seconds
        layers.dijkstra_s += dijkstra.seconds


def _instrument_engine(engine, layers: LayerSamples) -> None:
    """Swap in timed result caches and a timed ``ObjectIndex.apply``
    on a fresh engine, before its first query."""
    engine._knn_cache = _TimedTaggedCache(engine._knn_cache.maxsize, layers)
    engine._range_cache = _TimedTaggedCache(engine._range_cache.maxsize, layers)
    apply = Timed(engine.object_index.apply)
    apply.seconds = layers.apply_s
    engine.object_index.apply = apply


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
class PassRecorder:
    """Latencies, counts and failures of the timed passes."""

    def __init__(self) -> None:
        self.query_s: list[float] = []
        self.update_s: list[float] = []
        self.tally = Tally()
        self.first_error: str | None = None

    def fail(self, kind: str, exc: Exception) -> None:
        self.tally.add(kind, False)
        if self.first_error is None:
            self.first_error = f"{kind}: {type(exc).__name__}: {exc}"


def _run_events(engine, events, rec: PassRecorder, layers: LayerSamples | None) -> tuple[list, float]:
    """Closed loop over ``events``; returns ``(answers, wall seconds)``.
    Latencies are kept from untraced passes only (``layers is None``)."""
    answers: list = [None] * len(events)
    query_s, update_s = rec.query_s, rec.update_s
    begin = perf_counter()
    for i, event in enumerate(events):
        is_update = isinstance(event, UpdateOp)
        qs = QueryStats() if layers is not None and not is_update else None
        start = perf_counter()
        try:
            answers[i] = answer(engine, event, qs)
        except Exception as exc:  # noqa: BLE001 - counted as a failed event
            rec.fail("update" if is_update else event.kind, exc)
            answers[i] = exc
            continue
        took = perf_counter() - start
        if is_update:
            rec.tally.add("update", True)
            if layers is None:
                update_s.append(took)
            else:
                layers.inval_s.append(layers.inval_pending)
                layers.inval_pending = 0.0
        else:
            rec.tally.add(event.kind, True)
            if layers is None:
                query_s.append(took)
            else:
                layers.add_stats(qs)
    return answers, perf_counter() - begin


def _docs(answers) -> list:
    """Answers in wire normal form (``None`` for a failed event)."""
    return [None if isinstance(a, Exception) else result_to_doc(a) for a in answers]


def _digest(answers) -> str:
    return hashlib.sha256(json.dumps(_docs(answers), sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Correctness (outside the timed region)
# ----------------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _matches_oracle(event, got, want) -> bool:
    if event.kind == "distance":
        return _close(got, want)
    if event.kind == "path":
        return _close(got.distance, want.distance)
    if event.kind == "knn":
        return len(got) == len(want) and all(
            _close(g.distance, w.distance) for g, w in zip(got, want))
    mine = {n.object_id: n.distance for n in got}
    theirs = {n.object_id: n.distance for n in want}
    return mine.keys() == theirs.keys() and all(
        _close(mine[i], theirs[i]) for i in mine)


def check_answers(space, tree, make_objects, stream, answers, seed: int) -> list[str]:
    """Compare one pass's answers with a ``kernels="python"`` replay
    (exactly, in wire normal form) and a seeded sample with the
    Dijkstra oracle (at the tier-1 tolerance). Returns the problems."""
    problems: list[str] = []
    reference = QueryEngine(tree, make_objects(), kernels="python")
    ref_docs = [result_to_doc(answer(reference, e)) for e in stream]
    docs = _docs(answers)
    diverged = [i for i, (a, b) in enumerate(zip(docs, ref_docs))
                if a is not None and a != b]
    if diverged:
        problems.append(f"{len(diverged)} answers differ from the python-kernel "
                        f"replay (first at event {diverged[0]})")

    oracle = QueryEngine(DijkstraOracle(space, d2d=tree.d2d),
                         objects=make_objects(), cache=False)
    queries = [i for i, e in enumerate(stream) if not isinstance(e, UpdateOp)]
    sample = set(random.Random(seed).sample(queries, min(ORACLE_SAMPLE, len(queries))))
    wrong = []
    for i, event in enumerate(stream):
        if isinstance(event, UpdateOp):
            oracle.update(event)
        elif i in sample and not isinstance(answers[i], Exception):
            if not _matches_oracle(event, answers[i], answer(oracle, event)):
                wrong.append(i)
    if wrong:
        problems.append(f"{len(wrong)}/{len(sample)} sampled answers differ from "
                        f"the Dijkstra oracle (first at event {wrong[0]})")
    return problems


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _setup(profile: str, seed: int):
    """Venue generation, ``VIPTree.build``, engine construction and the
    first answer — what ``setup_s`` times."""
    start = perf_counter()
    space = load_venue(VENUE, profile)
    tree = VIPTree.build(space)
    engine = QueryEngine(tree, random_objects(space, N_OBJECTS, seed=seed))
    engine.knn(random_point(space, random.Random(seed)), 10)
    return perf_counter() - start, space, tree, engine


@dataclass
class InputSet:
    """One seeded draw of the workload's inputs: objects, stream, probe."""

    seed: int
    stream: list
    probe: list
    answers: list | None = None
    digests: set = field(default_factory=set)


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        profile: str = "small") -> dict:
    spec = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        took, space, tree, setup_engine = _setup(profile, seed)
        setups.append(took)
    kernels = setup_engine.kernels

    def make_objects(s: int):
        return random_objects(space, N_OBJECTS, seed=s)

    inputs = []
    for k in range(INPUT_SETS):
        s = seed * INPUT_SETS + k
        probe = _relocations(space, make_objects(s), spec.probe_updates[profile], s + 2)
        inputs.append(InputSet(s, spec.make_stream(
            space, make_objects(s), tree, spec.pass_events[profile], s + 1), probe))

    def fresh_engine(inp: InputSet):
        return QueryEngine(tree, make_objects(inp.seed), kernels=kernels)

    # untimed warm-up: fills the kernels' lazy per-leaf programs
    for inp in inputs:
        warm = fresh_engine(inp)
        for event in inp.probe + inp.stream:
            answer(warm, event)

    n_leaves = sum(1 for node in tree.nodes if node.is_leaf)
    layers = LayerSamples(n_leaves)
    rec = PassRecorder()
    untraced_events, untraced_s = 0, 0.0
    #: events and seconds of the untraced passes of each cycle
    cycles: list[list] = []
    # one cycle runs every input set once (untraced and traced when
    # tracing); runs end on a cycle boundary so counts are per full cycle
    cycle = INPUT_SETS * (2 if trace else 1)
    passes = 0
    run_start = perf_counter()
    while passes % cycle or perf_counter() - run_start < seconds:
        traced = trace and passes % 2 == 1
        inp = inputs[(passes // (2 if trace else 1)) % INPUT_SETS]
        engine = fresh_engine(inp)
        if traced:
            _instrument_engine(engine, layers)
            with _instrumented(kernels, layers):
                moved, _ = _run_events(engine, inp.probe, rec, layers)
                answers, took = _run_events(engine, inp.stream, rec, layers)
            layers.add_engine(engine)
            layers.passes += 1
            layers.events += len(inp.stream)
            layers.seconds += took
        else:
            moved, _ = _run_events(engine, inp.probe, rec, None)
            answers, took = _run_events(engine, inp.stream, rec, None)
            untraced_events += len(inp.stream)
            untraced_s += took
            if passes % cycle == 0:
                cycles.append([0, 0.0])
            cycles[-1][0] += len(inp.stream)
            cycles[-1][1] += took
        passes += 1
        answers = moved + answers
        inp.digests.add(_digest(answers))
        if inp.answers is None:
            inp.answers = answers
    rss = peak_rss_mb()

    problems = []
    for inp in inputs:
        problems += check_answers(space, tree, lambda: make_objects(inp.seed),
                                  inp.probe + inp.stream, inp.answers, inp.seed + 3)
        if len(inp.digests) > 1:
            problems.append(f"answers to input set {inp.seed} differ between passes")
    attempted, failed = rec.tally.total, rec.tally.total_failed
    n_probe = len(inputs[0].probe)
    notes = [f"{workload}: {passes} passes over {INPUT_SETS} input sets of "
             f"{len(inputs[0].stream)} events"
             + (f" + {n_probe} timed object moves" if n_probe else "")
             + f", {len(rec.query_s)} query and {len(rec.update_s)} update latency "
             "samples (untraced passes)",
             *rec.tally.lines()]
    if rec.first_error:
        notes.append(f"first failure: {rec.first_error}")
    query_us = [s * 1e6 for s in rec.query_s]
    update_us = [s * 1e6 for s in rec.update_s]
    if trace:
        metrics = {**layers.metrics(), **tails(query_us, update_us)}
        metrics["bench.trace_eps_ratio"] = ((layers.events / layers.seconds)
                                            / (untraced_events / untraced_s))
    else:
        metrics = end_to_end(
            setup_s=median(setups),
            events_per_s=median([events / took for events, took in cycles]),
            query_us=query_us, update_us=update_us,
            attempted=attempted, failed=failed, rss_mb=rss)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "notes": notes}
