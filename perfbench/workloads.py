"""The three serving workloads and their seeded op streams.

Every workload serves ``road_network(GRAPH_SIZE, GRAPH_SEED)``.  The
graph, the feed's incidents and the hot pairs are fixed with it; the
run's ``--seed`` orders the incidents and draws the query pairs.  So
runs differ in order and pairs, not in the network or the per-road
maintenance work.  A round is a fixed number of individually issued
``distance()`` calls followed by one ``apply()`` publish; the stream
depends only on the seed and the graph, never on the program's answers
or timing.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Tuple

GRAPH_SIZE = 8000
GRAPH_SEED = 7
#: Cycles per pass; each cycle serves one freshly built service, so a
#: pass gives this many set-up samples.
GROUPS = 4
#: Feed incidents per cycle: each is congested and later restored, so a
#: pass makes ``2 * GROUPS * INCIDENTS`` = 104 publishes, just over the 100
#: a run must make: a pass is mostly set-ups and publishes, and has to fit
#: about 40 s even while the host is slow.
INCIDENTS = 13
#: Rounds per cycle: one publish each.
CYCLE_ROUNDS = 2 * INCIDENTS

#: ch-hot-reads traffic: Zipf-1.1 draws over ``POPULAR`` fixed pairs, a
#: publish every ``HOT_QUERIES`` queries.  With 500 popular pairs a CH
#: publish's AFF evicts about 110 cached pairs, and re-filling them costs
#: a CH search each: a round takes about 0.58 s and 104 publishes about a
#: minute (2-core host).  With 50 pairs a round takes about 0.18 s and
#: about 93% of queries hit the cache, far from the 50% at which p50
#: would fall between the hit and the miss latency.
POPULAR = 50
ZIPF = 1.1
HOT_QUERIES = 400
#: Uniform queries per round on h2h-feed and fleet-mixed: 6,240 query
#: samples per pass (62 beyond p99) at a few percent of the wall time.
UNIFORM_QUERIES = 60

Pair = Tuple[int, int]
Update = Tuple[Tuple[int, int], float]


def graph_fingerprint(graph) -> str:
    digest = hashlib.sha256()
    for u, v, w in sorted(graph.edges()):
        digest.update(f"{u} {v} {w!r};".encode())
    return digest.hexdigest()[:16]


def stream_fingerprint(stream, rounds: int) -> str:
    digest = hashlib.sha256()
    for _ in range(rounds):
        queries, batch = stream.next_round()
        digest.update(repr((queries, batch)).encode())
    return digest.hexdigest()[:16]


class TrafficFeed:
    """Congestion / recovery batches in the paper's Exp-4 style.

    The feed knows a fixed list of incidents, chosen with the graph (not
    the run seed), as the paper's Exp-4 fixes its sample of edge groups:
    each incident multiplies a group of distinct roads' weights by an
    integer factor, and a later batch restores them.  The incidents are
    split into ``GROUPS`` groups of ``INCIDENTS``.  A *cycle* congests
    and restores every incident of the next group once, in an order the
    run's seed shuffles, with ``CONGESTED`` incidents congested at a time
    (congest, congest, restore, congest, restore, ...), and ends with
    every road back at its base weight.  A *pass* is ``GROUPS`` cycles:
    every incident once, so every pass does the same per-road work in a
    different order.  Integer weights keep every distance exact in
    floating point.
    """

    CONGESTED = 2

    def __init__(self, rng: random.Random, graph, name: str, sizes: Tuple[int, int]) -> None:
        fixed = random.Random(f"incidents:{name}:{GRAPH_SEED}")
        edges = sorted((u, v) for u, v, _w in graph.edges())
        total = INCIDENTS * GROUPS
        picked = fixed.sample(edges, total * sizes[1])
        self._congest: List[List[Update]] = []
        self._restore: List[List[Update]] = []
        for _ in range(total):
            roads = [picked.pop() for _ in range(fixed.randint(*sizes))]
            factor = fixed.randint(2, 4)
            self._congest.append([(e, graph.weight(*e) * factor) for e in roads])
            self._restore.append([(e, graph.weight(*e)) for e in roads])
        self._rng = rng
        self._cycles = 0
        self._pending: List[int] = []
        self._congested: List[int] = []

    def next_batch(self) -> List[Update]:
        rng = self._rng
        if not self._pending and not self._congested:
            first = (self._cycles % GROUPS) * INCIDENTS
            self._cycles += 1
            self._pending = list(range(first, first + INCIDENTS))
            rng.shuffle(self._pending)
        restore = bool(self._congested) and (
            not self._pending or len(self._congested) >= self.CONGESTED
        )
        if restore:
            return list(self._restore[self._congested.pop(0)])
        incident = self._pending.pop()
        self._congested.append(incident)
        return list(self._congest[incident])


def _uniform_pair(rng: random.Random, n: int) -> Pair:
    s = rng.randrange(n)
    t = rng.randrange(n - 1)
    return s, t + (t >= s)


class UniformStream:
    """``UNIFORM_QUERIES`` uniform random pairs between publishes."""

    def __init__(self, rng, graph, feed: TrafficFeed) -> None:
        self._rng, self._n, self._feed = rng, graph.n, feed

    def warmup(self) -> List[Pair]:
        return [_uniform_pair(self._rng, self._n) for _ in range(20)]

    def next_round(self) -> Tuple[List[Pair], List[Update]]:
        queries = [_uniform_pair(self._rng, self._n) for _ in range(UNIFORM_QUERIES)]
        return queries, self._feed.next_batch()


class HotPairStream:
    """``HOT_QUERIES`` Zipf-skewed draws from ``POPULAR`` fixed popular
    pairs between publishes."""

    def __init__(self, rng, graph, feed: TrafficFeed) -> None:
        self._rng, self._feed = rng, feed
        # The hot routes and their popularity ranks are fixed with the
        # graph, like the feed's incidents; the seed drives the draws.
        fixed = random.Random(f"popular:{GRAPH_SEED}")
        pairs = set()
        while len(pairs) < POPULAR:
            pairs.add(_uniform_pair(fixed, graph.n))
        self._pairs = sorted(pairs)
        fixed.shuffle(self._pairs)
        self._cum = list(accumulate(1.0 / (k + 1) ** ZIPF for k in range(POPULAR)))

    def warmup(self) -> List[Pair]:
        return list(self._pairs)

    def _draw(self) -> Pair:
        x = self._rng.random() * self._cum[-1]
        return self._pairs[min(bisect_left(self._cum, x), POPULAR - 1)]

    def next_round(self) -> Tuple[List[Pair], List[Update]]:
        queries = [self._draw() for _ in range(HOT_QUERIES)]
        return queries, self._feed.next_batch()


class Workload:
    """One serving workload: how to build the service and its op stream."""

    name = ""

    def build(self, graph):
        raise NotImplementedError

    def stream(self, seed: int, graph):
        raise NotImplementedError

    def close(self, service) -> None:
        service.close()

    def search_counter(self, service):
        """The op counter the current epoch's query search adds to, if
        the workload reports search op counts."""
        return None

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")


class ChHotReads(Workload):
    name = "ch-hot-reads"

    def build(self, graph):
        from repro.core.dynamic import DynamicCH
        from repro.serve.server import DistanceServer

        return DistanceServer(DynamicCH(graph), workers=1)

    def stream(self, seed: int, graph):
        rng = self.rng(seed)
        return HotPairStream(rng, graph, TrafficFeed(rng, graph, self.name, (1, 2)))

    def search_counter(self, service):
        return service.snapshot().oracle.counter


class H2hFeed(Workload):
    name = "h2h-feed"

    def build(self, graph):
        from repro.core.dynamic import DynamicH2H
        from repro.serve.server import DistanceServer

        return DistanceServer(DynamicH2H(graph), workers=1)

    def stream(self, seed: int, graph):
        rng = self.rng(seed)
        return UniformStream(rng, graph, TrafficFeed(rng, graph, self.name, (1, 4)))


class FleetMixed(Workload):
    name = "fleet-mixed"

    def build(self, graph):
        from repro.fleet.coordinator import FleetCoordinator

        return FleetCoordinator(graph, processes=False)

    def stream(self, seed: int, graph):
        rng = self.rng(seed)
        return UniformStream(rng, graph, TrafficFeed(rng, graph, self.name, (1, 1)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ChHotReads(), H2hFeed(), FleetMixed())
}
