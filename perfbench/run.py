"""The repository benchmark: closed-loop serving workloads at 8k vertices.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ch-hot-reads --seed 1 --seconds 40 --trace 0

One client issues every call and waits for its answer (closed loop, one
client, no extra threads).  A round is a run of individually issued
``distance()`` calls followed by one ``apply()`` publish, so a slow
stretch on the host lands on query and publish samples alike.

A run is a sequence of *cycles*.  Each cycle sets the service up from
scratch (graph generation, index build, server or fleet construction;
timed as one ``setup_s`` sample), serves one feed cycle on it (every
road ends back at its base weight), and tears it down.  Query latency
depends on where a build's arrays land in memory, so spreading the
rounds over several builds keeps one unlucky build from setting the
whole run.  A *pass* is ``GROUPS`` cycles, every incident of the feed
once.  A run makes at least one pass, and starts another only while the
passes so far say it would end within ``--seconds``; a pass takes about
30-40 s on a 2-core host, so ``--seconds`` below 60 gives one pass.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` wraps every layer's entry points with timing spans
(``tracing.py``) during set-up and on alternate rounds, and reports the
per-layer metrics: traced rounds give the layer numbers, untraced
rounds the baseline for the tracing overhead.  Counts marked exact in
``manifest.json`` are taken over the first pass, which every run
completes, so the same seed gives the same counts.

Every timing is scaled to a reference host speed.  The shared host
this benchmark runs on switches between a fast and a slow state (about
1.5x slower) in stretches of seconds, on every CPU at once, and the
share of slow time in a run varied from about 1/3 to 3/4 between runs
(2-core host), so raw medians flip between the two states.  A fixed
pure-Python loop, the *gauge* (``host_gauge``), is timed right before
and after each timed block, and the block's time is multiplied by
``GAUGE_REFERENCE_S`` over the mean of the two readings.  The gauge
runs none of the program's code, so it tracks the host, not the
program: a change that makes the program slower moves the scaled
figures as much as the raw ones.  Memory-heavy code slows more than the
gauge in the slow state (read side by side for 120 s: the gauge 1.53x,
H2H queries 1.55x, CH searches 1.79x), so the scaling removes most of
the host's drift, not all.  The first output line also gives the
unscaled medians and the gauge readings.

Served answers are sampled and checked against Dijkstra on the
benchmark's own copy of the graph, outside the timed calls.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS_PER_ROUND = 2
#: The gauge: the fastest of ``GAUGE_REPEATS`` runs of a loop of
#: ``GAUGE_LOOP`` integer multiply-adds (about 0.5-0.6 ms on a 2-core
#: host in its fast state, 0.7-0.9 ms in its slow one).
GAUGE_LOOP = 10_000
GAUGE_REPEATS = 3
#: The host speed every timing is scaled to: the gauge's reading on a
#: 2-core host in its fast state.  Only a unit; any fixed value would do.
GAUGE_REFERENCE_S = 0.55e-3
#: Start no pass that would end after this long, so the process ends
#: well inside its time limit.
HARD_CAP_S = 150.0
REFERENCE_SEED = 0


class FingerprintError(Exception):
    pass


def host_gauge() -> float:
    """Seconds the gauge loop takes now; see the module docstring."""
    best = float("inf")
    for _ in range(GAUGE_REPEATS):
        start = perf_counter()
        acc = 0
        for i in range(GAUGE_LOOP):
            acc += i * i
        best = min(best, perf_counter() - start)
    return best


class Run:
    """One workload run: the cycles, their rounds, and the accounting."""

    def __init__(self, workload, seed: int, trace: bool) -> None:
        from repro.baselines.dijkstra import distance as reference_distance
        from repro.graph import generators

        self.workload = workload
        self.seed = seed
        # Called through the module, so the traced run's wrapper applies.
        self.generators = generators
        self.reference_distance = reference_distance
        self.tracer = self.instrumentation = None
        if trace:
            from tracing import Instrumentation, Tracer

            self.tracer = Tracer()
            self.instrumentation = Instrumentation(self.tracer)
        self.attempted = 0
        self.failed = 0
        self.query_s = {False: [], True: []}  # keyed by "traced round"
        self.publish_s = {False: [], True: []}
        self.updates = 0
        self.setup_s = []
        self.gauges = []  # every gauge reading of the run
        self.raw = {"setup": [], "query": [], "publish": []}  # untraced, unscaled
        self.counts = {}
        self.rounds = 0
        self.cycles = 0
        self.prefix_spans = 0
        self.fingerprint = None
        self.partition = None  # the fleet's, for its shape

    def scale(self, before: float, after: float) -> float:
        """Factor taking a block's time, between gauge readings *before*
        and *after*, to the reference host speed."""
        self.gauges += (before, after)
        return GAUGE_REFERENCE_S / ((before + after) / 2)

    def execute(self, seconds: float, expected_fingerprint) -> None:
        from workloads import GROUPS

        start = perf_counter()
        stream = None
        while True:
            service, graph = self.build()
            try:
                if stream is None:
                    self.fingerprint = fingerprints(self.workload, graph)
                    if self.fingerprint != expected_fingerprint:
                        raise FingerprintError(
                            f"input fingerprint {self.fingerprint} differs from "
                            f"manifest.json {expected_fingerprint}; the graph "
                            "generator or the op stream changed"
                        )
                    stream = self.workload.stream(self.seed, graph)
                    self.partition = getattr(service, "partition", None)
                ref = graph.copy()
                for s, t in stream.warmup():
                    service.distance(s, t)
                self.serve_cycle(service, ref, stream)
                if ref != graph:
                    self._fail("a feed cycle did not restore every base weight")
            finally:
                self.workload.close(service)
            service = graph = ref = None
            gc.collect()
            self.cycles += 1
            if self.tracer is not None and self.cycles == GROUPS:
                self.prefix_spans = len(self.tracer.spans)
            if self.cycles % GROUPS == 0:
                elapsed = perf_counter() - start
                per_pass = elapsed / (self.cycles // GROUPS)
                if elapsed + per_pass > min(seconds, HARD_CAP_S):
                    break

    # -- set-up --------------------------------------------------------
    def build(self):
        """One timed set-up: graph generation, index, server or fleet."""
        from workloads import GRAPH_SEED, GRAPH_SIZE

        if self.instrumentation is not None:
            self.instrumentation.install()
        gauge = host_gauge()
        root = self.tracer.open("setup") if self.tracer else None
        start = perf_counter()
        graph = self.generators.road_network(GRAPH_SIZE, GRAPH_SEED)
        service = self.workload.build(graph)
        elapsed = perf_counter() - start
        if root is not None:
            self.tracer.close(root)
            self.instrumentation.remove()
        self.setup_s.append(elapsed * self.scale(gauge, host_gauge()))
        self.raw["setup"].append(elapsed)
        return service, graph

    # -- one feed cycle on one build -----------------------------------
    def serve_cycle(self, service, ref, stream) -> None:
        from workloads import CYCLE_ROUNDS, GROUPS

        tracer = self.tracer
        check_rng = random.Random(f"check:{self.workload.name}:{self.seed}:{self.cycles}")
        in_prefix = self.cycles < GROUPS
        for _ in range(CYCLE_ROUNDS):
            traced = tracer is not None and self.rounds % 2 == 0
            if traced:
                self.instrumentation.install()
            pairs, batch = stream.next_round()
            counter = self.workload.search_counter(service) if traced else None
            answers = []
            times = []
            gauge_before = host_gauge()
            for s, t in pairs:
                root = tracer.open("query") if traced else None
                ops_before = counter.total() if counter is not None else 0
                t0 = perf_counter()
                try:
                    answer = service.distance(s, t)
                except Exception as exc:  # a served failure, counted
                    answer = None
                    self._fail(f"distance({s}, {t}) raised {exc!r}")
                t1 = perf_counter()
                if root is not None:
                    tracer.close(root)
                    if in_prefix and counter is not None:
                        self._count("ch.search_ops", counter.total() - ops_before)
                if answer is not None:
                    times.append(t1 - t0)
                answers.append(answer)
            gauge_between = host_gauge()
            scale = self.scale(gauge_before, gauge_between)
            self.query_s[traced] += [t * scale for t in times]
            if not traced:
                self.raw["query"] += times
            self.attempted += len(pairs)
            if in_prefix:
                self._count_routes(service, pairs)

            root = tracer.open("publish") if traced else None
            t0 = perf_counter()
            try:
                report = service.apply(batch)
            except Exception as exc:  # a failed publish, counted
                report = None
                self._fail(f"apply({batch}) raised {exc!r}")
            t1 = perf_counter()
            if root is not None:
                tracer.close(root)
                self.instrumentation.remove()
            gauge_after = host_gauge()
            self.attempted += 1

            # Untimed: check sampled answers against Dijkstra on the
            # weights they were served under, then follow the publish.
            for i in check_rng.sample(range(len(pairs)), CHECKS_PER_ROUND):
                s, t = pairs[i]
                expected = self.reference_distance(ref, s, t)
                if answers[i] is not None and answers[i] != expected:
                    self._fail(f"distance({s}, {t}) = {answers[i]}, Dijkstra {expected}")
            if report is not None:
                self.publish_s[traced].append((t1 - t0) * self.scale(gauge_between, gauge_after))
                if not traced:
                    self.raw["publish"].append(t1 - t0)
                self.updates += len(batch)
                for (u, v), w in batch:
                    ref.set_weight(u, v, w)
                if traced and in_prefix:
                    self._count_publish(service, report)
            self.rounds += 1

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"failure: {message}", file=sys.stderr)

    def _count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _count_routes(self, service, pairs) -> None:
        partition = getattr(service, "partition", None)
        if partition is None:
            return
        shard_of = partition.shard_of
        for s, t in pairs:
            a, b = int(shard_of[s]), int(shard_of[t])
            if a < 0 or b < 0:
                self._count("route.boundary", 1)
            elif a == b:
                self._count("route.local", 1)
            else:
                self._count("route.cross", 1)

    def _count_publish(self, service, report) -> None:
        from repro.core.changed import ch_change_metrics, h2h_change_metrics

        self._count("publishes", 1)
        shard_reports = getattr(report, "shard_reports", None)
        if shard_reports is None:
            served = [(report, service.snapshot().oracle)]
        else:
            tokens = service.snapshot().shard_tokens
            served = [(shard_reports[k], tokens[k].oracle) for k in sorted(shard_reports)]
            self._count("fleet.dirty_shards", len(shard_reports))
            stats = report.boundary_stats
            if stats is not None:
                self._count("fleet.boundary_ops", stats.ops_total)
                self._count("fleet.boundary_fallbacks", len(stats.fallbacks))
        for serve_report, oracle in served:
            update = serve_report.report
            delta = update.increases + update.decreases
            if hasattr(oracle.index, "tree"):
                aff = h2h_change_metrics(
                    oracle.index,
                    delta,
                    update.changed_shortcuts,
                    update.changed_super_shortcuts,
                ).aff_norm
            else:
                aff = ch_change_metrics(oracle.index, delta, update.changed_shortcuts).aff_norm
            self._count("maint.ops", sum(update.ops.values()))
            self._count("maint.aff_norm", aff)
            self._count("coalesce.superseded", serve_report.superseded)
            self._count("coalesce.dropped", serve_report.dropped)
            self._count("serve.aff_vertices", serve_report.affected or 0)
            self._count("cache.evicted", serve_report.evicted)
            self._count("cache.carried", serve_report.carried)

    # -- results -------------------------------------------------------
    def end_to_end(self) -> dict:
        from layers import quantile

        query_s = self.query_s[False]
        publish_s = self.publish_s[False]
        return {
            "setup_s": statistics.median(self.setup_s),
            "query_p50_us": quantile(query_s, 0.50) * 1e6,
            "query_p99_us": quantile(query_s, 0.99) * 1e6,
            "queries_per_s": len(query_s) / sum(query_s),
            "publish_p50_ms": quantile(publish_s, 0.50) * 1e3,
            "publish_p90_ms": quantile(publish_s, 0.90) * 1e3,
            "updates_per_s": self.updates / sum(publish_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def fingerprints(workload, graph) -> dict:
    """Fingerprints of the graph and of the reference seed's first pass."""
    from workloads import CYCLE_ROUNDS, GROUPS, graph_fingerprint, stream_fingerprint

    stream = workload.stream(REFERENCE_SEED, graph)
    return {
        "graph": graph_fingerprint(graph),
        "stream": stream_fingerprint(stream, GROUPS * CYCLE_ROUNDS),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--print-fingerprints",
        action="store_true",
        help="print the workload's input fingerprints for manifest.json and exit",
    )
    return parser.parse_args(argv)


def print_phase_table(table) -> None:
    for phase, row in table.items():
        print(f"phase {phase}: wall {row['wall_s']:.4f} s over {row['ops']} ops")
        for layer, own in sorted(row["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<24} {own:10.4f} s  {100 * own / row['wall_s']:5.1f}%")


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the repro package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from layers import quantile
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.print_fingerprints:
        service, graph = Run(workload, args.seed, False).build()
        workload.close(service)
        print(json.dumps({workload.name: fingerprints(workload, graph)}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    run = Run(workload, args.seed, bool(args.trace))
    try:
        run.execute(args.seconds, manifest["fingerprints"][workload.name])
    except FingerprintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "fingerprint": run.fingerprint,
        "cycles": run.cycles,
        "wall_s": perf_counter() - started,
        "setup_samples_s": run.setup_s,
        "gauge_ms": [min(run.gauges) * 1e3, quantile(run.gauges, 0.5) * 1e3, max(run.gauges) * 1e3],
        "raw_p50": {k: quantile(v, 0.5) for k, v in run.raw.items() if v},
    }))

    correct = run.failed == 0
    if args.trace:
        from layers import layer_report, silent_metrics

        metrics, table = layer_report(run)
        silent = silent_metrics(run.tracer.spans, workload.name, manifest["per_layer"])
        for name in silent:
            print(f"error: no span of {name}'s entry points fired on {workload.name}", file=sys.stderr)
        correct = correct and not silent
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"{workload.name}-seed{args.seed}-trace.json"
        path.write_text(json.dumps({"phases": table, "spans": run.tracer.spans}))
        print_phase_table(table)
        wanted = spec["per_layer"]
    else:
        metrics = run.end_to_end()
        wanted = spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
