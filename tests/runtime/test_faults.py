"""Fault-injection matrix: the runtime must survive what the paper fears.

FastPR exists because a soon-to-fail node may actually die.  These
tests kill the STF node at various migration progress points, kill
helpers, drop/corrupt/duplicate packets and degrade NICs — and assert
that every repaired chunk still comes out byte-identical, with the
degraded-mode bookkeeping (retries, replans, conversions) visible in
the result.
"""

import dataclasses
import time

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import RepairMethod
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    UnrecoverableChunkError,
    heal_action,
)
from repro.ec import make_codec
from repro.runtime import (
    AgentError,
    CrashFault,
    FaultInjector,
    FaultPlan,
    Heartbeat,
    LinkFault,
    Network,
    RepairTimeoutError,
    RuntimeConfig,
    Scrubber,
    SlowNicFault,
)
from repro.runtime.messages import DataPacket
from repro.runtime.testbed import EmulatedTestbed
from repro.sim.simulator import RepairSimulator

CHUNK = 16 * 1024

#: tight timings so fault detection happens in test time, not ops time
FAST = RuntimeConfig(
    ack_timeout=1.5,
    join_timeout=5.0,
    deadline_margin=4.0,
    min_deadline=0.8,
    max_retries=3,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_cap=0.2,
    probe_timeout=0.4,
    heartbeat_interval=0.1,
    poll_interval=0.05,
)


def make_cluster(num_stripes=8, seed=21, chunk=CHUNK, bandwidth=1e9):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=num_stripes,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=seed,
        disk_bandwidth=bandwidth,
        network_bandwidth=bandwidth,
        chunk_size=chunk,
    )
    cluster.node(0).mark_soon_to_fail()
    return cluster


def make_testbed(tmp_path, faults=None, config=FAST, packet_size=None, **kw):
    cluster = make_cluster(**kw)
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=packet_size or CHUNK // 4,
        workdir=tmp_path / "bed",
        config=config,
        faults=faults,
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    return cluster, testbed


def migrated_bytes(plan, chunk=CHUNK):
    migrations = sum(
        1 for a in plan.actions() if a.method is RepairMethod.MIGRATION
    )
    return migrations * chunk


class TestStfCrash:
    """The headline scenario: the STF node dies mid-repair."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75])
    def test_stf_crash_mid_migration(self, tmp_path, fraction):
        # Size the byte trigger from an identical (deterministic) plan.
        plan_preview = FastPRPlanner().plan(make_cluster(), 0)
        total = migrated_bytes(plan_preview)
        assert total > 0, "scenario needs at least one migration"
        if fraction == 0.0:
            crash = CrashFault(node=0, at_time=0.0)
        else:
            crash = CrashFault(node=0, after_sent_bytes=int(fraction * total))
        cluster, testbed = make_testbed(
            tmp_path, faults=FaultPlan(crashes=[crash])
        )
        try:
            plan = FastPRPlanner().plan(cluster, 0)
            result = testbed.execute(plan)
            # Byte-identical repair at the *effective* destinations,
            # and zero corrupt chunks anywhere else in the cluster.
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert result.dead_nodes == [0]
            assert result.degraded
            assert result.replans >= 1
            assert result.converted_migrations >= 1
            assert result.chunks_repaired == plan.total_chunks
        finally:
            testbed.shutdown()

    def test_stf_crash_at_start_converts_every_migration(self, tmp_path):
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(crashes=[CrashFault(node=0, at_time=0.0)]),
        )
        try:
            plan = FastPRPlanner().plan(cluster, 0)
            migrations = sum(
                1 for a in plan.actions() if a.method is RepairMethod.MIGRATION
            )
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert result.converted_migrations == migrations
            # Healed actions never touch the dead node.
            for action in result.executed_actions:
                assert 0 not in action.sources
                assert action.destination != 0
        finally:
            testbed.shutdown()


class TestHelperCrash:
    def test_helper_crash_resolves_with_survivors(self, tmp_path):
        plan_preview = ReconstructionOnlyPlanner(seed=1).plan(make_cluster(), 0)
        helper = next(iter(plan_preview.actions())).sources[0]
        assert helper != 0
        crash = CrashFault(node=helper, after_sent_bytes=CHUNK // 2)
        cluster, testbed = make_testbed(
            tmp_path, faults=FaultPlan(crashes=[crash])
        )
        try:
            plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert result.dead_nodes == [helper]
            assert result.replans >= 1
        finally:
            testbed.shutdown()


class TestLinkFaults:
    @pytest.mark.parametrize("drop", [0.05, 0.10])
    def test_packet_loss_is_retried(self, tmp_path, drop):
        config = dataclasses.replace(FAST, ack_timeout=1.0)
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(drop=drop)], seed=11),
            config=config,
            packet_size=CHUNK // 2,
            num_stripes=6,
        )
        try:
            plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert testbed.faults.stats["dropped"] >= 1
            assert result.retries >= 1
            assert result.degraded
            assert result.dead_nodes == []  # lossy, but nobody died
        finally:
            testbed.shutdown()

    def test_corrupt_payload_detected_and_retried(self, tmp_path):
        config = dataclasses.replace(FAST, ack_timeout=0.8, max_retries=6)
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(corrupt=0.3)], seed=5),
            config=config,
            packet_size=CHUNK // 2,
            num_stripes=6,
        )
        try:
            plan = MigrationOnlyPlanner().plan(cluster, 0)
            result = testbed.execute(plan)
            # The checksum caught every flipped byte: despite in-flight
            # corruption, the stored chunks are byte-identical.
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert testbed.faults.stats["corrupted"] >= 1
            assert result.retries >= 1
        finally:
            testbed.shutdown()

    def test_duplicated_packets_are_harmless(self, tmp_path):
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(duplicate=0.5)], seed=3),
            num_stripes=6,
        )
        try:
            plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert testbed.faults.stats["duplicated"] >= 1
            # Deduplication means no retries were ever needed.
            assert not result.degraded
        finally:
            testbed.shutdown()

    def test_slow_nic_degrades_but_completes(self, tmp_path):
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(slow_nics=[SlowNicFault(node=0, factor=0.25)]),
            bandwidth=400e6,
            num_stripes=6,
        )
        try:
            plan = FastPRPlanner().plan(cluster, 0)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            endpoint = testbed.network.endpoint(0)
            assert endpoint.nic_out.rate == pytest.approx(0.25 * 400e6)
            assert endpoint.nic_in.rate == pytest.approx(0.25 * 400e6)
        finally:
            testbed.shutdown()


class TestTimeoutsAndErrors:
    def test_unrecoverable_stall_raises_timeout_naming_actions(self, tmp_path):
        # Every data packet vanishes but every node answers pings: the
        # coordinator must classify this as transient, exhaust its
        # retries, and fail loudly with the pending action keys.
        config = dataclasses.replace(
            FAST, ack_timeout=0.6, min_deadline=0.5, max_retries=1
        )
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(drop=1.0)]),
            config=config,
            num_stripes=4,
        )
        try:
            plan = MigrationOnlyPlanner().plan(cluster, 0)
            with pytest.raises(RepairTimeoutError) as excinfo:
                testbed.execute(plan)
            assert excinfo.value.pending
            key = excinfo.value.pending[0]
            assert str(key) in str(excinfo.value)
        finally:
            testbed.shutdown(check_errors=False)

    def test_reexecute_after_timeout_supersedes_leftovers(self, tmp_path):
        # A timed-out run leaves its last attempts' assemblies waiting at
        # the destinations.  Re-executing the plan on the same
        # coordinator must issue newer attempts that supersede them,
        # not reuse their generation ("duplicate assembly" NACK) or an
        # older one (dropped as stale) and stall into retries.
        config = dataclasses.replace(
            FAST, ack_timeout=5.0, min_deadline=0.5, max_retries=1
        )
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(drop=1.0)]),
            config=config,
            num_stripes=4,
        )
        try:
            plan = MigrationOnlyPlanner().plan(cluster, 0)
            with pytest.raises(RepairTimeoutError):
                testbed.execute(plan)
            testbed.faults = testbed.network.faults = None  # links heal
            started = time.monotonic()
            result = testbed.execute(plan)
            elapsed = time.monotonic() - started
            testbed.verify_plan(plan, result)
            assert (result.nacks, result.retries) == (0, 0)
            assert elapsed < config.ack_timeout / 2
        finally:
            testbed.shutdown(check_errors=False)

    def test_shutdown_surfaces_agent_errors(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path)
        # Garbage with no action key: recorded locally, raised at
        # teardown instead of vanishing into a daemon thread.
        testbed.network.endpoint(1).inbox.put(object())
        deadline = time.monotonic() + 5
        while not testbed.agents[1].errors and time.monotonic() < deadline:
            time.sleep(0.02)
        assert testbed.agents[1].errors
        with pytest.raises(AgentError, match="unhandled errors"):
            testbed.shutdown()

    def test_crashed_agents_are_excused_at_teardown(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path)
        testbed.crash_node(3)
        testbed.agents[3].errors.append(RuntimeError("post-mortem noise"))
        testbed.shutdown()  # must not raise


class TestNetworkMembership:
    def test_detach_black_holes_then_replacement_attaches(self):
        net = Network()
        net.attach(1, None)
        second = net.attach(2, None)
        net.send(1, 2, Heartbeat(1))
        assert isinstance(second.inbox.get_nowait(), Heartbeat)
        removed = net.detach(2)
        assert removed.closed
        net.send(1, 2, Heartbeat(1))  # silently dropped, no error
        with pytest.raises(KeyError):
            net.endpoint(2)
        replacement = net.attach(2, None)
        net.send(1, 2, Heartbeat(1))
        assert isinstance(replacement.inbox.get_nowait(), Heartbeat)

    def test_send_to_never_attached_node_still_raises(self):
        net = Network()
        net.attach(1, None)
        with pytest.raises(KeyError):
            net.send(1, 99, Heartbeat(1))

    def test_detach_unknown_node_raises(self):
        net = Network()
        with pytest.raises(KeyError):
            net.detach(7)


def _packet(payload=b"x" * 64):
    return DataPacket(
        stripe_id=1, chunk_index=0, source=0, offset=0, payload=payload
    )


class TestFaultInjectorUnit:
    def test_link_decisions_are_deterministic(self):
        plan = FaultPlan(
            links=[LinkFault(drop=0.3, duplicate=0.2, corrupt=0.1)], seed=7
        )
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        seq_a = [first.on_data_packet(0, 1, _packet()) for _ in range(200)]
        seq_b = [second.on_data_packet(0, 1, _packet()) for _ in range(200)]
        assert seq_a == seq_b
        # A different link draws from an independent stream.
        seq_c = [second.on_data_packet(0, 2, _packet()) for _ in range(200)]
        assert seq_c != seq_b

    def test_byte_triggered_crash_fires_once(self):
        deaths = []
        plan = FaultPlan(crashes=[CrashFault(node=0, after_sent_bytes=100)])
        injector = FaultInjector(plan, on_crash=deaths.append)
        assert injector.on_data_packet(0, 1, _packet(b"x" * 60)).deliver
        assert not injector.is_crashed(0)
        # 120 cumulative bytes >= 100: the node dies; the packet that
        # tripped the trigger is itself lost.
        assert not injector.on_data_packet(0, 1, _packet(b"x" * 60)).deliver
        assert injector.is_crashed(0)
        assert deaths == [0]
        # Crashed nodes neither send nor receive anything.
        assert not injector.filter_message(0, 5)
        assert not injector.filter_message(5, 0)
        assert not injector.on_data_packet(3, 0, _packet()).deliver
        injector.kill(0)  # idempotent
        assert deaths == [0]

    def test_crash_fault_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            CrashFault(node=0)
        with pytest.raises(ValueError):
            CrashFault(node=0, at_time=1.0, after_sent_bytes=10)

    def test_link_fault_validates_probabilities(self):
        with pytest.raises(ValueError):
            LinkFault(drop=1.5)
        with pytest.raises(ValueError):
            LinkFault(delay=-0.1)

    def test_slow_nic_fault_validates_factor(self):
        with pytest.raises(ValueError):
            SlowNicFault(node=0, factor=0.0)


class TestRuntimeConfig:
    def test_backoff_grows_exponentially_to_cap(self):
        config = RuntimeConfig(
            backoff_base=0.05, backoff_factor=2.0, backoff_cap=0.15
        )
        assert config.backoff(1) == pytest.approx(0.05)
        assert config.backoff(2) == pytest.approx(0.10)
        assert config.backoff(3) == pytest.approx(0.15)  # capped
        assert config.backoff(10) == pytest.approx(0.15)

    def test_config_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().ack_timeout = 1.0


class TestHealAction:
    def test_action_without_dead_nodes_is_untouched(self):
        cluster = make_cluster()
        plan = FastPRPlanner().plan(cluster, 0)
        action = next(plan.actions())
        assert heal_action(cluster, 0, action, dead=set()) is action

    def test_unrecoverable_when_too_few_helpers_survive(self):
        cluster = make_cluster()
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        action = next(plan.actions())
        stripe = cluster.stripe(action.stripe_id)
        # Kill the STF node and all but one other chunk holder: fewer
        # than k survivors remain.
        dead = set(stripe.nodes) - {action.destination}
        dead.discard(next(n for n in stripe.nodes if n != 0))
        dead.add(0)
        with pytest.raises(UnrecoverableChunkError):
            heal_action(cluster, 0, action, dead=dead)


class TestSimulatorMirror:
    def test_time_triggered_crash_converts_migrations(self):
        cluster = make_cluster()
        plan = FastPRPlanner().plan(cluster, 0)
        migrations = sum(
            1 for a in plan.actions() if a.method is RepairMethod.MIGRATION
        )
        assert migrations > 0
        sim = RepairSimulator(cluster)
        clean = sim.run(plan)
        faults = FaultPlan(crashes=[CrashFault(node=0, at_time=0.0)])
        degraded = sim.run(plan, faults=faults)
        assert degraded.dead_nodes == [0]
        assert degraded.replans == 1
        assert degraded.converted_migrations == migrations
        assert degraded.chunks_repaired == plan.total_chunks
        # Reconstruction moves k chunks per repaired chunk: the
        # degraded repair pays strictly more traffic.
        assert degraded.bytes_transferred > clean.bytes_transferred
        assert clean.replans == 0 and clean.dead_nodes == []

    def test_detection_delay_shifts_the_timeline(self):
        cluster = make_cluster()
        plan = FastPRPlanner().plan(cluster, 0)
        faults = FaultPlan(crashes=[CrashFault(node=0, at_time=0.0)])
        sim = RepairSimulator(cluster)
        base = sim.run(plan, faults=faults)
        delayed = sim.run(plan, faults=faults, detection_delay=0.5)
        assert delayed.total_time == pytest.approx(
            base.total_time + 0.5, abs=1e-3
        )

    def test_late_crash_only_affects_later_rounds(self):
        cluster = make_cluster()
        plan = FastPRPlanner().plan(cluster, 0)
        sim = RepairSimulator(cluster)
        clean = sim.run(plan)
        # Crash long after the repair finished: nothing changes.
        faults = FaultPlan(
            crashes=[CrashFault(node=0, at_time=clean.total_time * 10)]
        )
        result = sim.run(plan, faults=faults)
        assert result.total_time == pytest.approx(clean.total_time)
        assert result.dead_nodes == []
        assert result.converted_migrations == 0
