"""Data-plane workload: construction, then one closed-loop client.

Each pass builds the overlay from the seeded key workload with
``build_overlay`` (the paper's decentralized construction plus replica
reconciliation); that is the pass's set-up.  It then materializes
Algorithm 1's reference overlay over the same keys with
``PGridNetwork.ideal``, outside the set-up window.  One client then issues a
fixed, seeded stream of lookups (present and absent keys), ranges sized
by data quantiles, inserts and deletes, each after the previous one
returned, and checks every answer against its own sorted model of the
live keys.

The stream is served by the reference overlay.  The constructed overlay
leaves nested partitions on every seed tried (a peer whose path is a
strict prefix of another peer's path), so some of its lookups answer
"absent" for keys that deeper peers hold.  Those answers would fail the
run; the pass instead counts the nesting (``core.nested_paths``), checks
the constructed overlay against the invariants it does meet, and keeps
its construction cost in ``setup_s``.

Latencies are simulated, as on the wire: every forward and the reply to
the origin take one link delay drawn from the wire's default link model,
summed along the op.  Bytes use the wire's message-size model.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import random
import time
from typing import List, Optional, Tuple

from repro.core import construction
from repro.core.construction import ConstructionConfig
from repro.pgrid import replication
from repro.pgrid.keyspace import KEY_BITS
from repro.pgrid.keystore import KeyStore
from repro.pgrid.network import PGridNetwork, build_overlay
from repro.scenarios.invariants import (
    check_invariants,
    check_partition_tiling,
    check_routing_complementarity,
    live_key_coverage,
)
from repro.simnet.transport import HEADER_BYTES, KEY_BYTES, LogNormalLatency
from repro.workloads import datasets

from overlay_checks import misanswered_keys, nested_paths
from stats import peak_rss_mb, percentile_failed_last
from tracer import Tracer, patch_all, timed

LOOKUP, RANGE, INSERT, DELETE = "lookup", "range", "insert", "delete"
#: Op mix: (kind, share).  Half the lookups ask for absent keys.
MIX = ((LOOKUP, 0.70), (RANGE, 0.10), (INSERT, 0.10), (DELETE, 0.10))
#: Range widths as shares of the live keys (data quantiles, so a range
#: covers the same amount of data wherever the skew puts it).
RANGE_QUANTILES = (0.001, 0.003, 0.01)
KEYS_PER_PEER = 10
DISTRIBUTION = "P1.0"
#: Construction-stage spans must cover the traced setup_s to within this share.
SETUP_CLOSURE = 0.05

_now = time.perf_counter


class DataplaneWorkload:
    def __init__(self, n_peers: int, n_ops: int):
        self.n_peers = n_peers
        self.n_ops = n_ops
        self.config = ConstructionConfig()

    def prepare(self, seed: int) -> dict:
        """Derive every input from ``seed``: the key workload and the op stream."""
        rng = random.Random(seed)
        seeds = {name: rng.randrange(2**31) for name in
                 ("keys", "build", "blueprint", "ops", "route", "delay")}
        peer_keys = datasets.workload_keys(
            DISTRIBUTION, self.n_peers, KEYS_PER_PEER, seed=seeds["keys"]
        )
        initial = sorted({k for keys in peer_keys for k in keys})
        return {
            "seeds": seeds,
            "peer_keys": peer_keys,
            "initial": initial,
            "ops": _op_stream(initial, self.n_ops, random.Random(seeds["ops"])),
        }

    def _set_up(self, seeds: dict):
        """The keys and the constructed overlay: what ``setup_s`` times."""
        peer_keys = datasets.workload_keys(
            DISTRIBUTION, self.n_peers, KEYS_PER_PEER, seed=seeds["keys"]
        )
        built = build_overlay(peer_keys, config=self.config, rng=seeds["build"])
        return peer_keys, built

    def _serving(self, peer_keys, seeds: dict) -> PGridNetwork:
        """Algorithm 1's reference overlay over the same keys."""
        cfg = self.config
        return PGridNetwork.ideal(
            [k for keys in peer_keys for k in keys],
            self.n_peers,
            d_max=cfg.resolved_d_max(),
            n_min=cfg.n_min,
            rng=seeds["blueprint"],
        )

    def run_pass(self, inputs: dict, tracer: Optional[Tracer] = None) -> dict:
        seeds = inputs["seeds"]
        construction_stats: dict = {}
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                patch_all(stack, _patches(tracer, construction_stats))
            # Start every pass from a collected heap, so garbage the
            # previous pass left behind is not scanned on this one's clock.
            gc.collect()
            t0 = _now()
            peer_keys, built = self._set_up(seeds)
            t_setup = _now()
            serving = self._serving(peer_keys, seeds)
            client = _Client(inputs["initial"], seeds["delay"], tracer)
            client.run(serving, inputs["ops"], random.Random(seeds["route"]))
            t_end = _now()
        rss = peak_rss_mb()
        t_check = _now()
        if peer_keys != inputs["peer_keys"]:
            raise AssertionError("workload_keys is not deterministic for its seed")
        # The constructed overlay: routing complementarity, full live
        # coverage, and a tiling in which partitions may nest but leave
        # no gap.  The reference overlay meets every invariant.
        check_partition_tiling(built, allow_refinement=True)
        check_routing_complementarity(built)
        covered, total = live_key_coverage(built)
        if covered != total:
            raise AssertionError(f"built overlay covers {covered} of {total} keys")
        check_invariants(serving, require_full_coverage=True)
        client.check_final(serving)
        result = client.result(t_end - t0, t_setup - t0)
        result["metrics"]["peak_rss_mb"] = rss
        result["defects"] = {
            "core.nested_paths": nested_paths(built),
            "core.misanswered_keys": misanswered_keys(built),
        }
        result["check_s"] = client.check_s + (_now() - t_check)
        if tracer is not None:
            result["layers"] = self._layers(
                tracer, client, construction_stats, t_setup - t0
            )
        return result

    def _layers(self, tracer, client, construction_stats, setup_s) -> dict:
        totals = tracer.totals()

        def busy(name: str) -> float:
            return totals.get(name, (0, 0.0, 0.0))[1]

        def count(name: str) -> int:
            return totals.get(name, (0, 0.0, 0.0))[0]

        stages = (
            "workloads.keys", "core.construction", "pgrid.from_construction",
            "pgrid.replication.anti_entropy", "pgrid.replication.reconcile_down",
        )
        stage_sum = sum(busy(s) for s in stages)
        if abs(stage_sum - setup_s) > SETUP_CLOSURE * setup_s:
            raise AssertionError(
                f"ledger: construction stages sum to {stage_sum:.3f} s, "
                f"setup_s is {setup_s:.3f} s"
            )
        n = self.n_peers
        lookups = count("pgrid.search.lookup")
        ranges = count("pgrid.search.range")
        return {
            "workloads.keys_s": busy("workloads.keys"),
            "pgrid.blueprint_s": busy("pgrid.blueprint"),
            "core.construction_s": busy("core.construction"),
            "core.interactions_per_peer": construction_stats["interactions"] / n,
            "core.keys_moved_per_peer": construction_stats["keys_moved"] / n,
            "pgrid.from_construction_s": busy("pgrid.from_construction"),
            "pgrid.replication_s": busy("pgrid.replication.anti_entropy")
            + busy("pgrid.replication.reconcile_down"),
            "pgrid.search.lookup_s": busy("pgrid.search.lookup"),
            "pgrid.search.lookups": lookups,
            "pgrid.search.range_s": busy("pgrid.search.range"),
            "pgrid.search.ranges": ranges,
            "pgrid.search.lookup_hops_mean": client.lookup_hops / lookups,
            "pgrid.search.range_msgs_mean": client.range_msgs / ranges,
            "pgrid.network.write_s": busy("pgrid.network.insert")
            + busy("pgrid.network.delete"),
            "pgrid.network.writes": count("pgrid.network.insert")
            + count("pgrid.network.delete"),
            "pgrid.keystore.matching_keys_s": busy("pgrid.keystore.matching_keys"),
            "ledger.stage_share": stage_sum / setup_s,
        }


def _op_stream(initial: List[int], n_ops: int, rng: random.Random) -> List[Tuple]:
    """A fixed op stream over an evolving copy of the key set.

    Ops are ``(kind, a, b)``: a lookup or write key in ``a``, a range's
    half-open bounds in ``a``/``b``.  Deletes and present-key lookups
    pick live keys; inserts and absent-key lookups pick keys not live.
    """
    live = list(initial)
    live_set = set(live)
    space = 1 << KEY_BITS
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]

    def absent() -> int:
        while True:
            key = rng.randrange(space)
            if key not in live_set:
                return key

    ops: List[Tuple] = []
    for kind in rng.choices(kinds, weights, k=n_ops):
        if kind == LOOKUP:
            key = live[rng.randrange(len(live))] if rng.random() < 0.5 else absent()
            ops.append((LOOKUP, key, 0))
        elif kind == RANGE:
            width = max(1, int(rng.choice(RANGE_QUANTILES) * len(live)))
            i = rng.randrange(len(live) - width)
            ops.append((RANGE, live[i], live[i + width]))
        elif kind == INSERT:
            key = absent()
            bisect.insort(live, key)
            live_set.add(key)
            ops.append((INSERT, key, 0))
        else:
            key = live.pop(rng.randrange(len(live)))
            live_set.discard(key)
            ops.append((DELETE, key, 0))
    return ops


class _Client:
    """The closed-loop client: issues each op after the previous one
    returned and checks the answer against its sorted model of live keys.

    Only the library calls are timed into ``library_s``; the model
    bookkeeping and answer checks add up in ``check_s``.
    """

    def __init__(self, initial: List[int], delay_seed: int, tracer: Optional[Tracer]):
        self.live = list(initial)
        self.live_set = set(initial)
        self.tracer = tracer
        self.delay = LogNormalLatency()
        self.delay_rng = random.Random(delay_seed)
        self.digest = hashlib.sha256()
        self.library_s = 0.0
        self.check_s = 0.0
        self.ops = 0
        self.lookup_hops = 0
        self.range_msgs = 0
        self.messages = 0
        self.bytes = 0
        self.point_latencies: List[float] = []
        self.range_latencies: List[float] = []

    def _latency(self, links: int) -> float:
        sample, rng = self.delay.sample, self.delay_rng
        return sum(sample(rng) for _ in range(links))

    def run(self, net: PGridNetwork, ops: List[Tuple], route_rng: random.Random) -> None:
        tracer = self.tracer
        lookup, range_query = net.lookup, net.range_query
        insert, delete = net.insert, net.delete
        for op_id, (kind, a, b) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            t = _now()
            if kind == LOOKUP:
                res = lookup(a, rng=route_rng)
            elif kind == RANGE:
                res = range_query(a, b, rng=route_rng)
            elif kind == INSERT:
                res = insert(a, rng=route_rng)
            else:
                res = delete(a, rng=route_rng)
            t_call = _now()
            self.library_s += t_call - t
            self._check(op_id, kind, a, b, res)
            self.check_s += _now() - t_call
        self.ops = len(ops)

    def _check(self, op_id: int, kind: str, a: int, b: int, res) -> None:
        live, live_set = self.live, self.live_set
        if kind == RANGE:
            lo, hi = bisect.bisect_left(live, a), bisect.bisect_left(live, b)
            if not res.complete or res.keys != set(live[lo:hi]):
                raise AssertionError(
                    f"op {op_id}: range [{a}, {b}) returned {len(res.keys)} keys "
                    f"(complete={res.complete}), model holds {hi - lo}"
                )
            self.range_msgs += res.messages
            self.messages += res.messages
            replies = len(res.partitions)
            self.bytes += (res.messages + replies) * HEADER_BYTES + len(res.keys) * KEY_BYTES
            self.range_latencies.append(self._latency(res.messages + 1))
            self.digest.update(f"{op_id}:{res.messages}:{hi - lo};".encode())
            return
        if not res.found:
            raise AssertionError(f"op {op_id}: {kind} {a} reached no responsible peer")
        if kind == LOOKUP:
            if res.value_present != (a in live_set):
                raise AssertionError(
                    f"op {op_id}: lookup {a} answered present={res.value_present}, "
                    f"model says {a in live_set}"
                )
            self.lookup_hops += res.hops
            self.point_latencies.append(self._latency(res.hops + 1))
        elif kind == INSERT:
            bisect.insort(live, a)
            live_set.add(a)
        else:
            del live[bisect.bisect_left(live, a)]
            live_set.discard(a)
        self.messages += res.hops
        self.bytes += (res.hops + 1) * HEADER_BYTES
        self.digest.update(f"{op_id}:{res.hops}:{res.responsible};".encode())

    def check_final(self, net: PGridNetwork) -> None:
        """Every key the model holds is stored in the overlay, and nothing else."""
        stored = net.all_keys()
        if stored != self.live_set:
            raise AssertionError(
                f"overlay stores {len(stored)} keys, model holds {len(self.live_set)} "
                f"({len(stored ^ self.live_set)} differ)"
            )

    def result(self, wall_s: float, setup_s: float) -> dict:
        n_lookups = len(self.point_latencies)
        point = percentile_failed_last(self.point_latencies, n_lookups, 0.50)
        point99 = percentile_failed_last(self.point_latencies, n_lookups, 0.99)
        range90 = percentile_failed_last(
            self.range_latencies, len(self.range_latencies), 0.90
        )
        return {
            "attempted": self.ops,
            "sim_failed": 0,
            "digest": self.digest.hexdigest(),
            "percentiles": {
                "point_p50_s": point, "point_p99_s": point99,
                "range_p90_s": range90,
            },
            "metrics": {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "op_success": 1.0,
                "point_p50_s": point.value,
                "point_p99_s": point99.value,
                "range_p90_s": range90.value,
                "msgs_per_op": self.messages / self.ops,
                "bytes_per_op": self.bytes / self.ops,
                "ops_per_s": self.ops / self.library_s,
            },
        }


def _patches(tracer: Tracer, construction_stats: dict):
    def note_construction(result) -> None:
        construction_stats["interactions"] = result.interactions
        construction_stats["keys_moved"] = result.keys_moved

    def span(name: str, on_return=None):
        return lambda fn: timed(tracer, name, fn, on_return)

    return [
        (datasets, "workload_keys", span("workloads.keys")),
        (construction, "construct_overlay",
         span("core.construction", note_construction)),
        (PGridNetwork, "from_construction", span("pgrid.from_construction")),
        (replication, "anti_entropy_sweep", span("pgrid.replication.anti_entropy")),
        (replication, "reconcile_down", span("pgrid.replication.reconcile_down")),
        (PGridNetwork, "ideal", span("pgrid.blueprint")),
        (PGridNetwork, "lookup", span("pgrid.search.lookup")),
        (PGridNetwork, "range_query", span("pgrid.search.range")),
        (PGridNetwork, "insert", span("pgrid.network.insert")),
        (PGridNetwork, "delete", span("pgrid.network.delete")),
        (KeyStore, "matching_keys", span("pgrid.keystore.matching_keys")),
    ]
