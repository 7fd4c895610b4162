"""Multi-venue serving: one process answers for a mall, an office and
a campus at once.

The production shape the serving layer is built for: a snapshot catalog
holds one built index per venue, a `VenueRouter` keeps a bounded pool
of thread-safe engines warm-started from it, and `router.execute`
answers venue-tagged requests — called directly for ad-hoc queries,
and from a thread pool for many concurrent "users" whose queries
overlap with live object updates.

Run:  python examples/multi_venue_server.py
"""

import random
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

from repro.datasets import (
    build_campus,
    build_mall,
    build_office,
    multi_venue_streams,
    random_objects,
    random_point,
)
from repro.serving import Request, VenueRouter, concurrent_replay
from repro.storage import SnapshotCatalog


def main():
    # Three venues, one service.
    venues = []
    for build, name, n_objects in (
        (build_mall, "riverside-mall", 20),
        (build_office, "hq-tower", 15),
        (build_campus, "north-campus", 15),
    ):
        space = build("tiny", name=name)
        venues.append((space, random_objects(space, n_objects, seed=11)))

    catalog_dir = Path(tempfile.mkdtemp()) / "catalog"
    router = VenueRouter(SnapshotCatalog(catalog_dir), capacity=4)
    venue_ids = [router.add_venue(space, objects=objects) for space, objects in venues]
    for (space, _), vid in zip(venues, venue_ids):
        print(f"registered {space.name:15s} -> venue id {vid[:12]}")

    # A read-heavy mixed workload per venue: users querying while
    # tracked objects move (1 update per 4 queries).
    streams = multi_venue_streams(
        venues, 150, update_ratio=0.25, churn=0.1, seed=23,
        mix={"knn": 0.6, "distance": 0.25, "range": 0.15},
    )

    # Ad-hoc requests: one user per venue, answered in-process.
    rng = random.Random(7)
    for (space, _), vid in zip(venues, venue_ids):
        nearest = router.execute(Request(
            venue=vid, kind="knn", source=random_point(space, rng), k=3))
        pretty = ", ".join(f"#{n.object_id}@{n.distance:.1f}m" for n in nearest)
        print(f"{space.name:15s} nearest 3: {pretty}")

    # The full concurrent workload: every venue in flight at once,
    # four threads sharing the router (router.execute is thread-safe).
    with ThreadPoolExecutor(max_workers=4) as pool:
        threads = SimpleNamespace(
            submit=lambda request: pool.submit(router.execute, request),
            workers=4,
        )
        _, report = concurrent_replay(threads, dict(zip(venue_ids, streams)))
    print(f"\nserved: {report.summary()}")

    rstats = router.stats()
    print(f"router:   {rstats.venues} venues, {rstats.pooled} pooled engines, "
          f"{rstats.requests} requests, {rstats.warm_starts} warm starts")
    written = router.flush()
    print(f"flushed:  {written} updated engine(s) written back to {catalog_dir.name}/")


if __name__ == "__main__":
    main()
