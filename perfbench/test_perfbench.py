"""Self-tests of the benchmark, at toy sizes.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.runtime.agent as agent  # noqa: E402
from repro.core.matching import IncrementalStripeMatcher  # noqa: E402
from repro.ec import make_codec  # noqa: E402
from repro.runtime.datanode import ChunkStore  # noqa: E402

import measure  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload so one run takes a few seconds."""
    for name, value in {
        "REPAIR_STF_CHUNKS": 4,
        "REPAIR_CHUNK": 1 << 14,
        "GATEWAY_STRIPES": 8,
        "GATEWAY_PRELOAD": 6,
        "GATEWAY_CHUNK": 1 << 12,
        "OBJECT_MIN": 1 << 10,
        "OBJECT_MAX": 6 << 12,
        "GATEWAY_RATE": 40.0,
        "GATEWAY_RIGS": 2,
        "REPAIR_RIGS": 2,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.chdir(ROOT)


def _run(capsys, name: str, trace: int) -> dict:
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.6",
         "--trace", str(trace)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    detail = json.loads(lines[-2])
    assert detail["provenance"]["seed"] == 3
    assert set(detail["ceilings"]) == {"ec.gf_gb_s", "ec.xor_gb_s"}
    return result


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(toy, capsys, name):
    result = _run(capsys, name, trace=0)
    assert result["correct"]
    assert {
        metric: value["unit"] for metric, value in result["metrics"].items()
    } == run.metric_units(ROOT, "end_to_end")
    for value in result["metrics"].values():
        assert value["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_restores(toy, capsys, name):
    before = (
        agent.gf_addmul_bytes,
        IncrementalStripeMatcher.try_add,
        ChunkStore.read_packet_into,
    )
    result = _run(capsys, name, trace=1)
    assert {
        metric: value["unit"] for metric, value in result["metrics"].items()
    } == run.metric_units(ROOT, "per_layer")
    assert (
        agent.gf_addmul_bytes,
        IncrementalStripeMatcher.try_add,
        ChunkStore.read_packet_into,
    ) == before


def test_probe_restores_every_wrapped_function():
    codec_type = type(make_codec("rs(9,6)"))
    with probes.LayerProbe() as probe:
        probe.install_all(codec_type)
        patched = list(probe.patched)
        originals = {
            (owner, attr): getattr(owner, attr).__wrapped__
            for owner, attr, _ in patched
        }
    assert patched
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    for owner, attr, own in patched:
        assert vars(owner).get(attr, probes._MISSING) is own


def test_seed_decides_the_inputs():
    assert workloads._payload(1, 0) == workloads._payload(1, 0)
    assert workloads._payload(1, 0) != workloads._payload(2, 0)
    first, _ = workloads._repair_cluster(1)
    again, _ = workloads._repair_cluster(1)
    other, _ = workloads._repair_cluster(2)

    def placements(cluster):
        return [tuple(stripe.placement) for stripe in cluster.stripes()]

    assert placements(first) == placements(again)
    assert placements(first) != placements(other)


def test_wrong_bytes_get_counts_as_failed():
    class WrongBytes:
        def get(self, key):
            return b"not what was put"

    live = workloads._LiveKeys()
    live.add("obj-0", b"what was put")
    tally = measure.Tally()
    workloads._client_op("get", "obj-0", None, WrongBytes(), live, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failed_frac == 1.0
    assert not tally.correct


def test_benchmark_json_names_the_workloads():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_tail_level_keeps_ten_samples_beyond():
    assert measure.tail_level(range(1000), 0.99) == 0.99
    assert measure.tail_level(range(300), 0.99) == 0.95
    assert measure.tail_level(range(30), 0.95) == 0.5


def test_client_sequence_follows_the_instance_seed(monkeypatch):
    monkeypatch.setattr(workloads, "GATEWAY_PRELOAD", 4)
    monkeypatch.setattr(workloads, "OBJECT_MAX", 1 << 12)
    monkeypatch.setattr(workloads, "OBJECT_MIN", 1 << 10)

    class RecordingStore:
        codec = SimpleNamespace(n=1)

        def __init__(self):
            self.ops, self.data = [], {}

        def get(self, key):
            self.ops.append(("get", key))
            return self.data[key]

        def put(self, key, data):
            self.ops.append(("put", key))
            self.data[key] = data

        def stat(self, key):
            return SimpleNamespace(stripes=[0])

        def delete(self, key):
            self.ops.append(("delete", key))
            return 1

    def operations(seed):
        store, live = RecordingStore(), workloads._LiveKeys()
        for index in range(workloads.GATEWAY_PRELOAD):
            key, data = f"obj-{index}", workloads._payload(seed, index)
            store.data[key] = data
            live.add(key, data)
        tally = measure.Tally()
        clients = workloads._Clients(
            seed, 1000.0, store, live, tally, workloads._ClientStats()
        )
        for _ in range(3):
            clients.block()
            clients.deletes()
        assert tally.failed == 0
        return store.ops

    traced = [workloads.instance_seed(5, rig, True) for rig in range(3)]
    assert len(set(traced)) == 1
    assert operations(traced[0]) == operations(traced[0])
    assert operations(traced[0]) != operations(workloads.instance_seed(6, 0, True))


def test_gateway_failures_follow_the_seed(toy, tmp_path):
    def tally(seed):
        outcome = workloads.gateway_mix(seed, 2.4, False, tmp_path / str(seed))
        return outcome.tally.attempted, outcome.tally.failed, outcome.tally.errors

    first = tally(3)
    assert first[0] > 0
    assert tally(3) == first
