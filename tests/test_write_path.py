"""The write path: mutations, tombstones, replica sync, write scenarios.

Four layers, mirroring the subsystem's span:

* **Data plane**: ``PGridPeer.store/erase`` mutation properties
  (idempotence, tombstone lifecycle), ``PGridNetwork.insert/delete``
  routing + eager replica application, and delete-wins reconciliation
  (a deleted key must not resurrect from a stale replica).
* **Message level**: the ``insert``/``delete``/``replica_sync``
  protocol -- retry on timeout and dead end, moot writes, replica
  fan-out, tombstones riding anti-entropy exchanges, and the dedicated
  ``updates`` wire category.
* **Scenario layer**: ``WriteMix`` validation and compilation, write
  reports (``update_Bps`` series, ``writes`` section, divergence) on
  both backends, and read-only reports staying write-free.
* **Invariants**: ``check_replica_divergence`` and the divergence
  aggregates both backends share.
"""

import pytest

from repro.exceptions import DomainError, PartitionError, SimulationError
from repro.pgrid.bits import Path
from repro.pgrid.keyspace import float_to_key
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.replication import (
    anti_entropy_sweep,
    divergence_stats,
    reconcile,
)
from repro.scenarios import (
    Hotspot,
    Phase,
    ScenarioSpec,
    WriteMix,
    check_replica_divergence,
    run_scenario,
    scenario,
)
from repro.simnet import protocol as P
from repro.simnet.engine import Simulator
from repro.simnet.node import NodeConfig, PGridNode
from repro.simnet.transport import ConstantLatency, Network


def ideal_net(n_peers=48, n_keys=400, seed=3):
    import random

    rand = random.Random(seed)
    keys = [float_to_key(rand.random()) for _ in range(n_keys)]
    return PGridNetwork.ideal(keys, n_peers, d_max=40, n_min=3, rng=1)


class TestPeerMutations:
    def peer(self):
        return PGridPeer(0, Path.from_string("0"), keys=[1, 2, 3])

    def test_store_is_idempotent(self):
        peer = self.peer()
        key = 5
        peer.store(key)
        peer.store(key)
        assert sorted(peer.keys) == [1, 2, 3, 5]

    def test_erase_is_idempotent_and_tombstones(self):
        peer = self.peer()
        peer.erase(2)
        peer.erase(2)
        assert sorted(peer.keys) == [1, 3]
        assert 2 in peer.tombstones

    def test_erase_of_absent_key_still_tombstones(self):
        # An offline replica may hold the key; the tombstone is what
        # kills it at the next reconciliation.
        peer = self.peer()
        peer.erase(7)
        assert 7 in peer.tombstones

    def test_store_clears_tombstone(self):
        peer = self.peer()
        peer.erase(2)
        peer.store(2)
        assert 2 in peer.keys
        assert 2 not in peer.tombstones

    def test_mutations_outside_partition_rejected(self):
        peer = self.peer()  # path "0" covers the lower half
        foreign = (1 << 52) + 17  # top bit set -> partition "1"
        with pytest.raises(DomainError):
            peer.store(foreign)
        with pytest.raises(DomainError):
            peer.erase(foreign)


class TestReconcileWithTombstones:
    def pair(self):
        a = PGridPeer(0, Path.from_string("0"), keys=[1, 2, 3])
        b = PGridPeer(1, Path.from_string("0"), keys=[2, 3, 4])
        return a, b

    def test_delete_wins_over_stale_presence(self):
        a, b = self.pair()
        a.erase(2)
        reconcile(a, b)
        assert 2 not in a.keys and 2 not in b.keys
        assert 2 in a.tombstones and 2 in b.tombstones
        # The rest is the plain union.
        assert sorted(a.keys) == sorted(b.keys) == [1, 3, 4]

    def test_reconcile_is_idempotent(self):
        a, b = self.pair()
        a.erase(2)
        reconcile(a, b)
        snapshot = (sorted(a.keys), sorted(a.tombstones))
        stats = reconcile(a, b)
        assert (sorted(a.keys), sorted(a.tombstones)) == snapshot
        assert stats.keys_moved == 0

    def test_insert_after_propagated_delete_resurrects_via_clear(self):
        a, b = self.pair()
        a.erase(2)
        reconcile(a, b)  # tombstone everywhere
        a.store(2)  # re-insert clears a's tombstone...
        reconcile(a, b)  # ...but b's certificate still wins (delete-wins)
        assert 2 not in a.keys and 2 not in b.keys
        b.store(2)  # once the insert reaches every replica...
        a.store(2)
        reconcile(a, b)  # ...the key is durable again
        assert 2 in a.keys and 2 in b.keys

    def test_tombstones_move_through_sweep(self):
        net = ideal_net()
        key = float_to_key(0.321)
        res = net.insert(key, rng=2)
        owner = net.peers[res.responsible]
        # Take one replica offline, delete, bring it back: the sweep
        # must deliver the tombstone, not resurrect the key.
        rid = sorted(owner.replicas)[0]
        net.peers[rid].online = False
        net.delete(key, rng=2)
        assert key in net.peers[rid].keys  # missed the delete
        net.peers[rid].online = True
        anti_entropy_sweep(net, rounds=3, rng=4)
        assert key not in net.peers[rid].keys
        assert key in net.peers[rid].tombstones


class TestNetworkWrites:
    def test_insert_reaches_owner_and_online_replicas(self):
        net = ideal_net()
        key = float_to_key(0.4242)
        res = net.insert(key, rng=5)
        assert res.success and res.op == "insert"
        owner = net.peers[res.responsible]
        assert key in owner.keys
        assert res.replicas_written == len(owner.replicas)
        for rid in owner.replicas:
            assert key in net.peers[rid].keys

    def test_offline_replica_misses_write_and_diverges(self):
        net = ideal_net()
        key = float_to_key(0.777)
        probe = net.lookup(key, rng=1)
        rid = sorted(net.peers[probe.responsible].replicas)[0]
        net.peers[rid].online = False
        res = net.insert(key, rng=5)
        assert res.success
        assert key not in net.peers[rid].keys
        with pytest.raises(PartitionError):
            check_replica_divergence(net)
        # Anti-entropy heals the divergence once the replica returns.
        net.peers[rid].online = True
        anti_entropy_sweep(net, rounds=3, rng=4)
        check_replica_divergence(net)

    def test_delete_then_lookup_routes_but_key_is_gone(self):
        net = ideal_net()
        key = float_to_key(0.55)
        net.insert(key, rng=5)
        res = net.delete(key, rng=6)
        assert res.success and res.op == "delete"
        assert key not in net.all_keys()


class TestDivergenceStats:
    def test_synchronized_groups_report_zero(self):
        stats = divergence_stats([[{1, 2}, {1, 2}], [{3}, {3}]])
        assert stats == {
            "replicas": 4, "stale_replicas": 0, "mean": 0.0, "max": 0.0
        }

    def test_missing_keys_raise_mean_and_max(self):
        stats = divergence_stats([[{1, 2, 3, 4}, {1, 2}]])
        assert stats["replicas"] == 2
        assert stats["stale_replicas"] == 1
        assert stats["max"] == pytest.approx(0.5)
        assert stats["mean"] == pytest.approx(0.25)

    def test_empty_groups_are_skipped(self):
        assert divergence_stats([[set(), set()]])["replicas"] == 0

    def test_invariant_accepts_slack(self):
        net = ideal_net(n_peers=16, n_keys=100)
        key = float_to_key(0.5)
        probe = net.lookup(key, rng=1)
        rid = sorted(net.peers[probe.responsible].replicas)[0]
        net.peers[rid].online = False
        net.insert(key, rng=2)
        with pytest.raises(PartitionError):
            check_replica_divergence(net)
        check_replica_divergence(net, max_mean=0.5)


def build_wire(*, latency=0.01, loss=0.0, config=None, twin=True):
    """Quadrant overlay with an optional replica twin of quadrant 11."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss_rate=loss, rng=1)
    config = config or NodeConfig(query_retries=2, query_timeout=5.0)
    nodes = []
    quads = [
        ("00", [0.05, 0.2]), ("01", [0.3, 0.45]),
        ("10", [0.55, 0.7]), ("11", [0.8, 0.95]),
    ]
    for node_id, (path, floats) in enumerate(quads):
        node = PGridNode(node_id, sim, net, config=config, rng=node_id + 1)
        node.path = Path.from_string(path)
        node.keys = {float_to_key(f) for f in floats}
        node.joined = True
        nodes.append(node)
    for node in nodes:
        for other in nodes:
            if other is not node:
                cpl = node.path.common_prefix_length(other.path)
                if cpl < node.path.length:
                    node.add_route(cpl, other.node_id)
    if twin:
        peer = PGridNode(4, sim, net, config=config, rng=9)
        peer.path = Path.from_string("11")
        peer.keys = set(nodes[3].keys)
        peer.joined = True
        nodes[3].replicas = {4}
        peer.replicas = {3}
        nodes.append(peer)
    return sim, net, nodes


class TestMessageWriteProtocol:
    def test_insert_routes_applies_and_syncs_replicas(self):
        sim, net, nodes = build_wire()
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        key = float_to_key(0.87)
        nodes[0].issue_insert(key)
        sim.run_until(30.0)
        assert len(outcomes) == 1 and outcomes[0].success
        # One bit resolved per hop: 1 hop if level 0 routed straight to
        # quadrant 11, 2 if it went through quadrant 10 first.
        assert 1 <= outcomes[0].hops <= 2
        assert key in nodes[3].keys
        assert key in nodes[4].keys  # replica_sync delivered it

    def test_delete_tombstones_owner_and_replicas(self):
        sim, net, nodes = build_wire()
        key = float_to_key(0.8)
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        nodes[0].issue_delete(key)
        sim.run_until(30.0)
        assert outcomes[0].success
        for node in (nodes[3], nodes[4]):
            assert key not in node.keys
            assert key in node.tombstones

    @pytest.mark.parametrize(
        "delete_at, insert_at, present",
        [(2.0, 1.0, False), (1.0, 2.0, True)],
    )
    def test_last_writer_wins_on_issue_stamps(self, delete_at, insert_at, present):
        # The delete reaches the owner first.  An insert issued *before*
        # it (a late retry) must not clear its tombstone; one issued
        # after it must.  Both are acknowledged either way.
        sim, net, nodes = build_wire()
        key = float_to_key(0.87)
        acks = []
        nodes[0]._on_update_ack = lambda msg: acks.append(msg.payload["qid"])
        for qid, (op, issued_at) in enumerate(
            [("delete", delete_at), ("insert", insert_at)], start=1
        ):
            nodes[3]._route_write({
                "op": op, "key": key, "origin": 0, "qid": qid,
                "attempt": 1, "hops": 1, "issued_at": issued_at,
            })
        sim.run_until(10.0)
        assert sorted(acks) == [1, 2]
        for node in (nodes[3], nodes[4]):  # owner and synced replica
            assert (key in node.keys) is present
            assert (key in node.tombstones) is not present

    def test_delete_stamp_survives_snapshot_restore(self):
        sim, net, nodes = build_wire()
        key = float_to_key(0.87)
        owner = nodes[3]
        owner.apply_mutation("delete", key, 5.0)
        snap = owner.snapshot_state()
        assert snap["tombstone_stamps"] == [[key, 5.0]]
        owner._tombstone_stamp = {}
        owner.restore_state(snap)
        assert owner.apply_mutation("insert", key, 4.0) is False
        assert key not in owner.keys and key in owner.tombstones

    def test_local_write_completes_via_event_not_reentrantly(self):
        sim, net, nodes = build_wire()
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        wid = nodes[0].issue_insert(float_to_key(0.01))
        assert not outcomes  # resolution is an event, never re-entrant
        sim.run_until(10.0)
        assert outcomes and outcomes[0].success and outcomes[0].hops == 0
        assert wid > 0

    def test_write_traffic_lands_in_update_category(self):
        from repro.simnet.stats import StatsCollector

        sim = Simulator()
        stats = StatsCollector(bin_seconds=60.0)
        net = Network(sim, latency=ConstantLatency(0.01), rng=1, stats=stats)
        config = NodeConfig(query_retries=2, query_timeout=5.0)
        a = PGridNode(0, sim, net, config=config, rng=1)
        b = PGridNode(1, sim, net, config=config, rng=2)
        a.path, b.path = Path.from_string("0"), Path.from_string("1")
        a.joined = b.joined = True
        a.add_route(0, 1)
        b.add_route(0, 0)
        a.issue_insert(float_to_key(0.9))  # routed to b, acked back
        sim.run_until(10.0)
        update_bytes = sum(
            stats.bytes_by_category.get(P.UPDATE_TRAFFIC, {}).values()
        )
        assert update_bytes > 0
        assert not stats.bytes_by_category.get(P.QUERY_TRAFFIC)

    def test_dead_owner_times_out_then_fails_without_repair(self):
        from repro.pgrid.liveness import RouteRepairPolicy

        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(config=config, twin=False)
        nodes[3].online = False  # the only holder of quadrant 11
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        nodes[0].issue_insert(float_to_key(0.85))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.attempts == 3  # 1 + query_retries
        assert out.timeouts >= 1

    def test_dead_owner_fails_fast_with_repair(self):
        sim, net, nodes = build_wire(twin=False)
        nodes[3].online = False
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        nodes[0].issue_insert(float_to_key(0.85))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        out = outcomes[0]
        assert not out.success
        assert out.timeouts == 0  # refused connects, locally observed
        assert out.latency < 1.0

    def test_transient_outage_recovers_on_retry(self):
        from repro.pgrid.liveness import RouteRepairPolicy

        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(config=config, twin=False)
        key = float_to_key(0.85)
        nodes[3].online = False
        sim.schedule(6.0, lambda: nodes[3].set_online(True))
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        nodes[0].issue_insert(key)
        sim.run_until(120.0)
        assert outcomes[0].success
        assert outcomes[0].attempts >= 2
        assert key in nodes[3].keys

    def test_origin_offline_marks_write_moot(self):
        from repro.pgrid.liveness import RouteRepairPolicy

        config = NodeConfig(
            query_retries=2, query_timeout=5.0,
            repair=RouteRepairPolicy(enabled=False),
        )
        sim, net, nodes = build_wire(config=config, twin=False)
        nodes[3].online = False
        outcomes = []
        nodes[0].on_write_done = lambda nid, wid, out: outcomes.append(out)
        nodes[0].issue_insert(float_to_key(0.85))
        sim.schedule(2.0, lambda: nodes[0].set_online(False))
        sim.run_until(120.0)
        assert len(outcomes) == 1
        assert outcomes[0].moot and not outcomes[0].success
        assert nodes[0].write_results == []  # moot stays out of stats

    def test_exchange_propagates_tombstone_delete_wins(self):
        sim, net, nodes = build_wire()
        key = float_to_key(0.8)
        # Node 4 deletes locally; node 3 still holds the key.  The
        # anti-entropy exchange must kill it on both, not resurrect it.
        nodes[4].apply_mutation("delete", key)
        assert key in nodes[3].keys
        nodes[4].initiate_exchange(3)
        sim.run_until(30.0)
        assert key not in nodes[3].keys
        assert key in nodes[3].tombstones

    def test_tombstones_expire_after_ttl(self):
        # Certificates must not ride every exchange forever: past the
        # TTL they are pruned where they would ship.
        sim, net, nodes = build_wire()
        key = float_to_key(0.8)
        nodes[4].apply_mutation("delete", key)
        assert key in nodes[4].tombstones
        ttl = nodes[4].config.tombstone_ttl_s
        sim.run_until(ttl + 1.0)
        nodes[4].initiate_exchange(3)
        sim.run_until(ttl + 30.0)
        assert key not in nodes[4].tombstones
        assert key not in nodes[3].tombstones  # never shipped

    def test_regossip_does_not_refresh_tombstone_ttl(self):
        # A certificate ping-ponging between replicas must not live
        # forever: the born timestamp is stamped once per node.
        sim, net, nodes = build_wire()
        key = float_to_key(0.8)
        nodes[4].apply_mutation("delete", key)
        born = dict(nodes[4]._tombstone_born)
        nodes[4].initiate_exchange(3)
        sim.run_until(30.0)
        nodes[3].initiate_exchange(4)  # gossips the certificate back
        sim.run_until(60.0)
        assert nodes[4]._tombstone_born == born


def write_spec(n_peers=48, *, phase_kwargs=None, **mix_kwargs):
    mix_kwargs.setdefault("write_rate", 2.0)
    return ScenarioSpec(
        name="write-probe",
        phases=(
            Phase(
                name="mixed",
                duration_s=240.0,
                query_rate=2.0,
                writes=WriteMix(**mix_kwargs),
                maintenance_interval_s=60.0,
                **(phase_kwargs or {}),
            ),
        ),
        n_peers=n_peers,
        seed=13,
        report_bin_s=60.0,
    )


class TestWriteMixValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError):
            write_spec(write_rate=-1.0).validate()

    def test_zero_total_weight_rejected(self):
        with pytest.raises(SimulationError):
            write_spec(
                insert_weight=0.0, delete_weight=0.0, update_weight=0.0
            ).validate()

    def test_negative_weight_rejected(self):
        with pytest.raises(SimulationError):
            write_spec(insert_weight=-0.5).validate()

    def test_bad_hotspot_rejected(self):
        with pytest.raises(SimulationError):
            write_spec(hotspot=Hotspot(lo=0.9, hi=0.1)).validate()

    def test_valid_mix_passes(self):
        write_spec(hotspot=Hotspot(lo=0.1, hi=0.2)).validate()


class TestWriteScenarios:
    @pytest.mark.parametrize("backend", ["dataplane", "message"])
    def test_write_reports_deterministic(self, backend):
        spec = write_spec()
        a = run_scenario(spec, backend=backend)
        b = run_scenario(spec, backend=backend)
        assert a.to_json() == b.to_json()
        assert a.writes["writes"] > 0

    def test_report_carries_write_sections(self):
        report = run_scenario(write_spec())
        writes = report.writes
        assert writes["writes"] == (
            writes["inserts"] + writes["deletes"] + writes["updates"]
        )
        assert writes["success_rate"] > 0.9
        assert set(writes["divergence"]) == {
            "replicas", "stale_replicas", "mean", "max", "tombstones"
        }
        assert report.totals["bytes_update"] == writes["bytes_update"] > 0
        assert report.totals["bytes_total"] >= writes["bytes_update"]
        assert all("update_Bps" in row for row in report.series)
        assert any(row["update_Bps"] > 0 for row in report.series)
        phase = report.phases[0]
        assert phase["writes"] == writes["writes"]
        assert phase["update_bytes"] > 0

    def test_read_only_reports_stay_write_free(self):
        report = run_scenario(
            scenario("uniform-baseline", n_peers=24, seed=11, duration_scale=0.1)
        )
        assert report.writes is None
        assert "update_Bps" not in report.series[0]
        assert "writes" not in report.totals
        assert "writes" not in report.phases[0]
        assert "writes" not in report.to_dict()

    def test_message_backend_accounts_wire_update_bytes(self):
        report = run_scenario(write_spec(), backend="message")
        assert report.writes["bytes_update"] > 0
        assert report.message_level["write_path"]["timeouts"] >= 0
        assert any(row["update_Bps"] > 0 for row in report.series)

    def test_hotspot_writes_concentrate(self):
        hot = Hotspot(lo=0.25, hi=0.27, weight=1.0)
        spec = write_spec(
            insert_weight=1.0, delete_weight=0.0, update_weight=0.0,
            write_rate=4.0, hotspot=hot,
        )
        from repro.scenarios.runner import ScenarioRunner

        runner = ScenarioRunner(spec)
        runner.run()
        lo, hi = float_to_key(0.25), float_to_key(0.27)
        fresh = [
            k for k in runner.network.all_keys()
            if lo <= k < hi
        ]
        assert len(fresh) > 0  # inserts landed inside the hot window

    def test_library_write_scenarios_run_on_both_backends(self):
        for name in ("read-write-balanced", "write-hotspot-adversarial",
                     "asymmetric-partition-writes"):
            spec = scenario(name, n_peers=48, seed=7, duration_scale=0.1)
            for backend in ("dataplane", "message"):
                report = run_scenario(spec, backend=backend)
                assert report.writes is not None
                assert report.writes["writes"] > 0

    def test_settle_phase_reconverges_replicas(self):
        # read-write-balanced ends with a write-free settle phase: the
        # measured divergence must be (near) zero on the data plane.
        spec = scenario("read-write-balanced", n_peers=48, seed=7,
                        duration_scale=0.2)
        report = run_scenario(spec)
        assert report.writes["divergence"]["mean"] < 0.02

    def test_partition_cut_diverges_then_heals(self):
        spec = scenario("asymmetric-partition-writes", n_peers=64, seed=7,
                        duration_scale=0.15)
        report = run_scenario(spec, backend="message")
        # Writes kept flowing under the cut...
        assert report.writes["writes"] > 0
        # ...and the healed overlay is not pathologically divergent.
        assert report.writes["divergence"]["mean"] < 0.2
