"""The one coordinator-side repair driver: journals, fault rules, verify."""

import hashlib

import pytest

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.runtime import VerificationError, verify_repaired
from repro.runtime.faults import DomainCrashFault, FaultPlan
from repro.session import RepairSession


def make_cluster():
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=8,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=21,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=4096,
    )
    cluster.node(0).mark_soon_to_fail()
    return cluster


def test_missing_topology_rejected_for_tcp():
    cluster = make_cluster()
    plan = FastPRPlanner(seed=1).plan(cluster, 0)
    faults = FaultPlan(
        domain_crashes=[DomainCrashFault(kind="rack", index=1, at_time=0.0)]
    )
    with pytest.raises(ValueError, match="no topology"):
        RepairSession(
            cluster,
            make_codec("rs(5,3)"),
            plan,
            transport="tcp",
            peers={1: ("127.0.0.1", 1)},
            workdir="w",
            faults=faults,
        )


def test_memory_sharded_run_journals_in_journal_dir(tmp_path):
    cluster = make_cluster()
    plan = FastPRPlanner(seed=1).plan(cluster, 0)
    journals = tmp_path / "journals"
    summary = RepairSession(
        cluster,
        make_codec("rs(5,3)"),
        plan,
        coordinators=2,
        journal_dir=journals,
        seed=3,
    ).run()
    assert summary.chunks_verified == plan.total_chunks
    written = sorted(p.name for p in journals.glob("shard-*.journal"))
    assert written == ["shard-0.journal", "shard-1.journal"]


def test_sharded_session_rejects_single_journal_path(tmp_path):
    cluster = make_cluster()
    plan = FastPRPlanner(seed=1).plan(cluster, 0)
    with pytest.raises(ValueError, match="journal_dir"):
        RepairSession(
            cluster,
            make_codec("rs(5,3)"),
            plan,
            coordinators=2,
            journal_path=tmp_path / "repair.journal",
        )


def test_verify_repaired_reports_every_bad_chunk(tmp_path):
    cluster = make_cluster()
    plan = FastPRPlanner(seed=1).plan(cluster, 0)
    actions = list(plan.actions())
    assert len(actions) >= 3
    checksums = {}
    for i, action in enumerate(actions):
        data = bytes([i]) * 64
        checksums[(action.stripe_id, action.chunk_index)] = hashlib.sha256(
            data
        ).hexdigest()
        if i == 0:
            continue  # left missing
        if i == 1:
            data = b"\xff" + data[1:]  # one flipped byte
        store = tmp_path / f"node_{action.destination}"
        store.mkdir(exist_ok=True)
        (store / f"stripe_{action.stripe_id}.chunk").write_bytes(data)
    with pytest.raises(VerificationError) as caught:
        verify_repaired(actions, checksums, tmp_path)
    reasons = [(m.stripe_id, m.reason) for m in caught.value.mismatches]
    assert reasons == [
        (actions[0].stripe_id, "missing"),
        (actions[1].stripe_id, "mismatch"),
    ]
    assert verify_repaired(actions[2:], checksums, tmp_path) == len(actions) - 2
