"""End-to-end tests of the emulated testbed."""

import pytest

from repro.cluster import StorageCluster
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
)
from repro.core.plan import RepairScenario
from repro.ec import make_codec
from repro.runtime.testbed import EmulatedTestbed, VerificationError

CHUNK = 64 * 1024


@pytest.fixture(scope="module")
def repaired_testbed(tmp_path_factory):
    """A small cluster with data loaded, shared across this module."""
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=12,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=21,
        disk_bandwidth=200e6,
        network_bandwidth=400e6,
        chunk_size=CHUNK,
    )
    cluster.node(0).mark_soon_to_fail()
    codec = make_codec("rs(5,3)")
    testbed = EmulatedTestbed(
        cluster,
        codec,
        packet_size=16 * 1024,
        workdir=tmp_path_factory.mktemp("testbed"),
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    yield cluster, testbed
    testbed.shutdown()


class TestEndToEnd:
    @pytest.mark.parametrize(
        "planner_cls",
        [FastPRPlanner, ReconstructionOnlyPlanner, MigrationOnlyPlanner],
    )
    def test_scattered_repair_verifies(self, repaired_testbed, planner_cls):
        cluster, testbed = repaired_testbed
        plan = planner_cls().plan(cluster, 0)
        result = testbed.execute(plan)
        testbed.verify_plan(plan)
        assert result.chunks_repaired == cluster.load_of(0)
        assert result.total_time > 0
        assert len(result.round_times) == plan.num_rounds

    def test_hot_standby_repair_verifies(self, repaired_testbed):
        cluster, testbed = repaired_testbed
        plan = FastPRPlanner(scenario=RepairScenario.HOT_STANDBY, seed=0).plan(
            cluster, 0
        )
        testbed.execute(plan)
        testbed.verify_plan(plan)

    def test_packet_size_override(self, repaired_testbed):
        cluster, testbed = repaired_testbed
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        result = testbed.execute(plan, packet_size=CHUNK)
        testbed.verify_plan(plan)
        assert result.chunks_repaired == plan.total_chunks

    def test_traffic_amplification_of_reconstruction(self, repaired_testbed):
        cluster, testbed = repaired_testbed
        plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
        result = testbed.execute(plan)
        expected = plan.reconstructed_chunks * 3 * CHUNK
        assert result.bytes_transferred == expected

    def test_verify_detects_corruption(self, repaired_testbed):
        cluster, testbed = repaired_testbed
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        testbed.execute(plan)
        action = next(plan.actions())
        store = testbed.stores[action.destination]
        store.put(action.stripe_id, b"\x00" * CHUNK)
        with pytest.raises(VerificationError):
            testbed.verify_plan(plan)
        # Restore for other tests.
        testbed.execute(plan)
        testbed.verify_plan(plan)


class TestLifecycle:
    def test_execute_requires_start(self, tmp_path):
        cluster = StorageCluster.random(
            6, 4, 4, 2, seed=1, chunk_size=1024
        )
        cluster.node(0).mark_soon_to_fail()
        testbed = EmulatedTestbed(
            cluster, make_codec("rs(4,2)"), workdir=tmp_path
        )
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        with pytest.raises(RuntimeError, match="start"):
            testbed.execute(plan)

    def test_context_manager(self, tmp_path):
        cluster = StorageCluster.random(
            6, 4, 4, 2, seed=2, chunk_size=1024, disk_bandwidth=1e9,
            network_bandwidth=1e9,
        )
        cluster.node(0).mark_soon_to_fail()
        with EmulatedTestbed(
            cluster, make_codec("rs(4,2)"), workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=3)
            plan = MigrationOnlyPlanner().plan(cluster, 0)
            testbed.execute(plan)
            testbed.verify_plan(plan)
