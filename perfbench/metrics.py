"""The benchmark's metric names and units (``BENCHMARK.json`` lists the
same names; ``test_perfbench.py`` checks that the two agree)."""

from __future__ import annotations

#: what a user of the system sees — printed by ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "query_p50_us": "us",
    "update_p50_us": "us",
    "succeeded_share": "share",
    "peak_rss_mb": "MB",
}

#: single layers — printed by ``--trace 1``; a workload that does not
#: exercise a layer reports 0 for it and names it n/a in its notes
PER_LAYER = {
    "kernels.knn_full_us": "us",
    "kernels.range_full_us": "us",
    "kernels.calls": "count",
    "graph.dijkstra_calls": "count",
    "graph.dijkstra_us": "us",
    "core.same_leaf_share": "share",
    "core.nodes_visited": "count",
    "core.list_entries_scanned": "count",
    "core.pairs_considered": "count",
    "core.object_index_apply_us": "us",
    "engine.result_hit_ratio": "share",
    "engine.context_hit_ratio": "share",
    "engine.cache_put_us": "us",
    "engine.tag_leaves_per_entry": "count",
    "engine.invalidation_us_p50": "us",
    "engine.invalidation_us_p99": "us",
    "engine.entries_dropped_per_update": "count",
    "storage.oplog_append_us_p50": "us",
    "storage.oplog_append_us_p99": "us",
    "storage.warm_start_s": "s",
    "serving.frontdoor_self_us": "us",
    "serving.cluster_self_us": "us",
    "serving.shard_self_us": "us",
    "serving.router_self_us": "us",
    "serving.engine_us": "us",
    "serving.protocol_encode_us": "us",
    "serving.protocol_decode_us": "us",
    "tail.query_p99_us": "us",
    "tail.update_p99_us": "us",
    "bench.gen_lag_p99_us": "us",
    "bench.trace_eps_ratio": "ratio",
}
