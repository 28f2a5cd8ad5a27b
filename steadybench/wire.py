"""Wire workloads: one library scenario on the message backend per pass.

A pass is ``scenario(...)`` -> ``MessageScenarioRunner(spec).run()``,
timed from outside.  Latency and cost come from the report, which is
deterministic per seed; host time is only taken for the whole pass and
its set-up (pass start to the first ``Simulator.run_until``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from typing import Dict, List, Optional

from repro.pgrid.network import PGridNetwork
from repro.scenarios import MessageScenarioRunner, base, scenario
from repro.scenarios.invariants import check_partition_tiling
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import PGridNode
from repro.simnet.transport import HEADER_BYTES, KEY_BYTES, REF_BYTES, Network

from overlay_checks import nested_paths, stale_refs
from stats import peak_rss_mb, percentile_failed_last
from tracer import Tracer, patch_all, timed

#: Message kind -> the family its per-layer counters are kept under.
FAMILY_OF: Dict[str, str] = {
    P.QUERY: "query", P.QUERY_HIT: "query", P.QUERY_MISS: "query",
    P.RANGE_QUERY: "range", P.RANGE_PART: "range",
    P.INSERT: "write", P.DELETE: "write",
    P.UPDATE_ACK: "write", P.UPDATE_MISS: "write",
    P.REPLICA_SYNC: "replica",
    P.EXCHANGE_REQ: "exchange", P.EXCHANGE_RESP: "exchange", P.STORE: "exchange",
    P.PING: "liveness", P.PONG: "liveness",
    P.JOIN: "membership", P.NEIGHBORS: "membership",
    P.WALK: "membership", P.WALK_RESULT: "membership",
    P.VOTE_REQ: "membership", P.VOTE_RESP: "membership",
    P.REPLICA_GRANT: "serving", P.REPLICA_REVOKE: "serving",
}
FAMILIES = ("query", "range", "write", "replica", "exchange", "liveness",
            "membership", "serving")
OP_FAMILIES = ("query", "range", "write")
SEND_CAUSES = ("offline", "refused", "partition", "loss")

#: Traced stage spans must cover the traced pass wall to within this share.
STAGE_CLOSURE = 0.05

_now = time.perf_counter


class WireWorkload:
    """One library scenario at a fixed population, default wire config."""

    def __init__(self, scenario_name: str, n_peers: int):
        self.scenario_name = scenario_name
        self.n_peers = n_peers

    def prepare(self, seed: int) -> int:
        return seed

    def _runner(self, seed: int) -> MessageScenarioRunner:
        return MessageScenarioRunner(
            scenario(self.scenario_name, n_peers=self.n_peers, seed=seed)
        )

    def run_pass(self, seed: int, tracer: Optional[Tracer] = None) -> dict:
        loop_starts: List[float] = []
        ledger = _SendLedger()
        with contextlib.ExitStack() as stack:
            patch_all(stack, _patches(tracer, loop_starts, ledger))
            # Start every pass from a collected heap, so garbage the
            # previous pass left behind is not scanned on this one's clock.
            gc.collect()
            t0 = _now()
            runner = self._runner(seed)
            report = runner.run()
            t_end = _now()
        rss = peak_rss_mb()
        t_check = _now()
        net = runner.as_network()
        # Anti-entropy exchanges may catch a partition mid-refinement at
        # the end (a parent path beside its children), so partitions may
        # nest; a gap or any other overlap still fails.
        check_partition_tiling(net, allow_refinement=True)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        result = self._metrics(runner, report, t_end - t0, loop_starts[0] - t0)
        result["metrics"]["peak_rss_mb"] = rss
        result["digest"] = digest
        # Refinement also leaves routing references outside their
        # complementary subtree on some seeds, which the strict
        # complementarity check rejects; they are counted, not gated.
        result["defects"] = {
            "simnet.end.nested_paths": nested_paths(net),
            "simnet.end.stale_refs": stale_refs(net),
        }
        result["check_s"] = _now() - t_check
        if tracer is not None:
            result["layers"] = self._layers(
                runner, report, tracer, ledger, t0, t_end
            )
        return result

    @staticmethod
    def _metrics(runner, report, wall_s: float, setup_s: float) -> dict:
        totals = report.totals
        queries = totals["queries"]
        writes = totals.get("writes", 0)
        attempted = queries + writes
        succeeded = totals["successes"] + totals.get("write_successes", 0)
        # The report's latency summaries cover successes only; failed
        # queries are ranked last here, each as taking the deadline at
        # which its origin gives up: every attempt's timeout.  The runner
        # drains in-flight queries for this window plus one second.
        deadline = runner.net_config.query_timeout_s * (runner.spec.query_retries + 1)
        point = percentile_failed_last(
            runner._point_latencies, totals["point_queries"], 0.50, deadline
        )
        point99 = percentile_failed_last(
            runner._point_latencies, totals["point_queries"], 0.99, deadline
        )
        range90 = percentile_failed_last(
            runner._range_latencies, totals["range_queries"], 0.90, deadline
        )
        return {
            "attempted": attempted,
            "sim_failed": attempted - succeeded,
            "percentiles": {
                "point_p50_s": point, "point_p99_s": point99,
                "range_p90_s": range90,
            },
            "metrics": {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "op_success": succeeded / attempted,
                "point_p50_s": point.value,
                "point_p99_s": point99.value,
                "range_p90_s": range90.value,
                "msgs_per_op": totals["messages"] / attempted,
                "bytes_per_op": totals["bytes_total"] / attempted,
                "ops_per_s": attempted / wall_s,
            },
        }

    @staticmethod
    def _layers(runner, report, tracer, ledger, t0: float, t_end: float) -> dict:
        totals = tracer.totals()
        ml = report.message_level
        sim = runner.simulator

        (keys,) = tracer.spans_named("workloads.keys")
        (blueprint,) = tracer.spans_named("pgrid.blueprint")
        loop, drain = tracer.spans_named("simnet.run_until")
        stages = {
            "keys": tracer.duration(keys),
            "blueprint": tracer.duration(blueprint),
            "spawn": tracer.start[loop] - tracer.end[blueprint],
            "loop": tracer.duration(loop),
            "drain": tracer.duration(drain),
            "assemble": t_end - tracer.end[drain],
        }
        wall = t_end - t0
        stage_sum = sum(stages.values())
        if abs(stage_sum - wall) > STAGE_CLOSURE * wall:
            raise AssertionError(
                f"ledger: stages sum to {stage_sum:.3f} s, traced wall is {wall:.3f} s"
            )
        sent = sum(ledger.msgs.values())
        if sent != ml["messages_sent"]:
            raise AssertionError(
                f"ledger: Network.send saw {sent} messages, report says "
                f"{ml['messages_sent']}"
            )
        sent_bytes = sum(ledger.bytes.values())
        if sent_bytes != report.totals["bytes_total"]:
            raise AssertionError(
                f"ledger: Network.send billed {sent_bytes} B, report says "
                f"{report.totals['bytes_total']} B"
            )
        if ledger.unknown:
            raise AssertionError(f"ledger: unmapped message kinds {sorted(ledger.unknown)}")
        run_s = stages["loop"] + stages["drain"]
        write_path = ml.get("write_path", {})
        repair = ml["repair"]
        layers = {
            "workloads.keys_s": stages["keys"],
            "pgrid.blueprint_s": stages["blueprint"],
            "scenarios.spawn_s": stages["spawn"],
            "scenarios.assemble_s": stages["assemble"],
            "simnet.loop_s": stages["loop"],
            "simnet.drain_s": stages["drain"],
            "simnet.events": sim.events_processed,
            "simnet.events_per_s": sim.events_processed / run_s,
            "simnet.pending_peak": sim.pending_peak,
            "simnet.op_msg_share": sum(ledger.msgs[f] for f in OP_FAMILIES) / sent,
            "simnet.timeouts": ml["timeouts"] + write_path.get("timeouts", 0),
            "simnet.retries": ml["retries"] + write_path.get("retries", 0),
            "pgrid.liveness.probes": repair["probes"],
            "pgrid.liveness.suspects": repair["suspects"],
            "pgrid.liveness.evictions": repair["evictions"],
            "ledger.stage_share": stage_sum / wall,
        }
        for fam in FAMILIES:
            layers[f"simnet.msgs.{fam}"] = ledger.msgs[fam]
            layers[f"simnet.bytes.{fam}"] = ledger.bytes[fam]
            layers[f"simnet.node.{fam}_s"] = totals.get(
                f"simnet.node.{fam}", (0, 0.0, 0.0)
            )[2]
        drops = ml["drops"]
        # Network counts a refused connect as an offline drop; the
        # send-time cause separates the two.
        layers["simnet.drops.loss"] = drops["loss"]
        layers["simnet.drops.partition"] = drops["partition"]
        layers["simnet.drops.refused"] = ledger.causes["refused"]
        layers["simnet.drops.offline"] = drops["offline"] - ledger.causes["refused"]
        return layers


class _SendLedger:
    """Per-family message and byte counts seen at ``Network.send``."""

    def __init__(self) -> None:
        self.msgs = dict.fromkeys(FAMILIES, 0)
        self.bytes = dict.fromkeys(FAMILIES, 0)
        self.causes = dict.fromkeys(SEND_CAUSES, 0)
        self.unknown: set = set()


def _patches(tracer: Optional[Tracer], loop_starts: List[float], ledger: _SendLedger):
    """The wrappers of one pass.  Untraced passes only note when each
    ``run_until`` starts, which is what ``setup_s`` ends on."""
    if tracer is None:
        def mark_loop(run_until):
            def wrapper(*args, **kwargs):
                loop_starts.append(_now())
                return run_until(*args, **kwargs)
            return wrapper

        return [(Simulator, "run_until", mark_loop)]

    def traced_run_until(run_until):
        inner = timed(tracer, "simnet.run_until", run_until)

        def wrapper(*args, **kwargs):
            loop_starts.append(_now())
            return inner(*args, **kwargs)
        return wrapper

    send_ids = {f: tracer.name_id(f"simnet.send.{f}") for f in FAMILIES}
    node_ids = {f: tracer.name_id(f"simnet.node.{f}") for f in FAMILIES}
    open_, close = tracer.open, tracer.close
    msgs, sizes, causes = ledger.msgs, ledger.bytes, ledger.causes

    def family(kind: str) -> str:
        fam = FAMILY_OF.get(kind)
        if fam is None:
            ledger.unknown.add(kind)
            return "membership"
        return fam

    def traced_send(send):
        def wrapper(self, src, dst, kind, payload, *, n_keys=0, n_refs=0,
                    category="maintenance"):
            fam = family(kind)
            idx = open_(send_ids[fam], payload.get("qid", -1))
            try:
                cause = send(self, src, dst, kind, payload, n_keys=n_keys,
                             n_refs=n_refs, category=category)
            finally:
                close(idx)
            msgs[fam] += 1
            sizes[fam] += HEADER_BYTES + n_keys * KEY_BYTES + n_refs * REF_BYTES
            if cause is not None:
                causes[cause] += 1
            return cause
        return wrapper

    def traced_receive(receive):
        def wrapper(self, message):
            idx = open_(node_ids[family(message.kind)], message.payload.get("qid", -1))
            try:
                return receive(self, message)
            finally:
                close(idx)
        return wrapper

    return [
        (base, "workload_keys", lambda fn: timed(tracer, "workloads.keys", fn)),
        (PGridNetwork, "ideal", lambda fn: timed(tracer, "pgrid.blueprint", fn)),
        (Simulator, "run_until", traced_run_until),
        (Network, "send", traced_send),
        (PGridNode, "receive", traced_receive),
    ]
