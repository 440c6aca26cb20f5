"""The benchmark workloads.

Each workload builds its inputs from the seed alone, measures its
timed part for about the requested number of seconds, checks every
output and returns a :class:`Outcome`.  The sizes below are fixed here and in
the workload rationales of ``BENCHMARK.json``; a change to them is a
change of the benchmark.

Every workload builds several rigs per run, one after another, and
splits the window between them (gateway-mix: a fixed number of epochs,
so that which operations fail follows from the seed).  Each rig is its own instance drawn
from the seed (placement, data, plan), so a run averages over
instances as well as over time, and ``setup_s`` is a median of several
set-ups at no extra measuring time.  In a traced run every rig is the
same instance; the last one runs with the :class:`~probes.LayerProbe`
wrappers installed and the earlier ones give the untraced baseline for
``obs.trace_overhead_frac``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.gateway import ObjectStore, TrafficArbiter
from repro.net import TcpNetwork
from repro.obs import MetricsRegistry
from repro.runtime import COORDINATOR_ID
from repro.runtime.testbed import EmulatedTestbed, VerificationError
from repro.sim.cost_model import evaluate_plan
from repro.sim.workload import PAPER_SIM_CONFIG, fixed_stf_chunk_count

from measure import Tally, peak_rss_mb, percentile, tail_level
from probes import LayerProbe, coordinator_layers, registry_layers

CODE = "rs(9,6)"

# -- repair-mem / repair-tcp --------------------------------------------
REPAIR_NODES = 16
REPAIR_STF_CHUNKS = 48
REPAIR_CHUNK = 1 << 20
#: "unthrottled": core.scheduling.migration_quota divides t_r by t_m,
#: which raises ZeroDivisionError when the bandwidth is infinite
UNTHROTTLED = 1e11
REPAIR_RIGS = 3

# -- gateway-mix ---------------------------------------------------------
GATEWAY_NODES = 12
GATEWAY_STRIPES = 32
GATEWAY_CHUNK = 1 << 16
GATEWAY_LINK = 40e6
GATEWAY_DISK = 400e6
CLIENT_FLOOR = 0.7
GATEWAY_PRELOAD = 24
#: object sizes: uniform in [MIN, MAX] bytes, so one stripe each
OBJECT_MIN = 1 << 15
OBJECT_MAX = 6 * GATEWAY_CHUNK
#: open-loop rate (operations per second): half the rig's closed-loop
#: capacity while repair attempts run, which ``perfbench/capacity.py``
#: measured as 52.8-64.0 op/s (median 56.5, eight seeds, 2-core x86-64
#: Linux, Python 3.11).  The mix, per block of 20 operations shuffled
#: from the seed: 15 GET, 3 PUT, 2 DELETE
GATEWAY_RATE = 28.0
MIX_BLOCK = ("get",) * 15 + ("put",) * 3 + ("delete",) * 2
GATEWAY_RIGS = 10
#: a repair attempt still running after this many seconds fails the run
ATTEMPT_LIMIT_S = 60.0


def instance_seed(seed: int, rig: int, trace: bool) -> int:
    """The seed of one rig's instance; a traced run repeats one instance."""
    return seed * 1000 + (0 if trace else rig)


@dataclass
class Outcome:
    """What one workload run measured."""

    tally: Tally = field(default_factory=Tally)
    #: end-to-end metric name -> value (the BENCHMARK.json set)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: the workload's own figures, name -> value; the unit ends the
    #: name (``_mb_s`` MB/s, ``_ms`` ms, ``_s`` s, ``_s_per_chunk``)
    figures: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: sample count behind each percentile and median
    samples: Dict[str, int] = field(default_factory=dict)


def _plan(cluster, stf, seed, outcome: Outcome) -> Tuple[object, float]:
    """FastPR-plan ``stf`` and check the plan; returns (plan, seconds)."""
    start = time.perf_counter()
    plan = FastPRPlanner(seed=seed).plan(cluster, stf)
    elapsed = time.perf_counter() - start
    try:
        plan.validate(cluster)
    except ValueError as exc:
        outcome.tally.fail("plan:invalid", wrong=str(exc))
        return plan, elapsed
    load = cluster.load_of(stf)
    if plan.total_chunks != load:
        outcome.tally.fail(
            "plan:chunk-count",
            wrong=f"plan repairs {plan.total_chunks} of {load} STF chunks",
        )
    else:
        outcome.tally.ok()
    return plan, elapsed


def _testbed_check(bed):
    """Verification by :meth:`EmulatedTestbed.verify_plan`."""

    def check(plan, result) -> int:
        try:
            bed.verify_plan(plan, result)
        except VerificationError as exc:
            return len(exc.mismatches)
        return 0

    return check


def _repair_once(bed, plan, check) -> Tuple[float, int, Optional[Exception]]:
    """Execute and verify one repair; returns (seconds, bad, error).

    Repaired copies from an earlier attempt are removed first, so every
    attempt writes and verifies its chunks afresh.  ``check(plan,
    result)`` counts the repaired chunks that are missing or wrong; it
    runs after failed attempts too, which still credit the chunks they
    did repair.
    """
    for action in plan.actions():
        store = bed.stores[action.destination]
        store.delete(action.stripe_id)
        store.discard_staged(action.stripe_id)
    start = time.perf_counter()
    error = result = None
    try:
        result = bed.execute(plan)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        error = exc
    elapsed = time.perf_counter() - start
    return elapsed, check(plan, result), error


def _count_repair(tally: Tally, plan, bad: int, error) -> bool:
    """Count one repair attempt; returns whether it succeeded."""
    if error is not None:
        tally.fail(f"repair:{type(error).__name__}")
    elif bad:
        tally.fail(
            "repair:verification",
            wrong=f"{bad} of {plan.total_chunks} repaired chunks wrong",
        )
    else:
        tally.ok()
        return True
    return False


def repair_mb_s(attempts: List[Tuple[float, int, bool]]) -> float:
    """Verified MB per second of wall time over the attempts that succeeded.

    ``attempts`` holds (seconds, verified bytes, succeeded) per attempt.
    A failed attempt counts in ``failed``, not here.
    """
    done = [(elapsed, good) for elapsed, good, ok in attempts if ok]
    seconds = sum(elapsed for elapsed, _ in done)
    return sum(good for _, good in done) / seconds / 1e6 if seconds else 0.0


def _model_seconds(cluster, plan) -> float:
    return evaluate_plan(cluster, plan).total_time


def _rig_layers(probe, bed, cluster, plan, repair_seconds) -> Dict[str, float]:
    """A traced rig's per-layer numbers: wrappers, registry, trace, plan."""
    layers = probe.layers()
    layers.update(registry_layers(bed.metrics))
    layers.update(coordinator_layers(bed.tracer))
    model = _model_seconds(cluster, plan)
    layers.update({
        "core.recon_sets": len([r for r in plan.rounds if r.reconstructions]),
        "core.rounds": plan.num_rounds,
        "plan_model_s_per_chunk": model / plan.total_chunks,
        "sim.measured_over_model": median(repair_seconds) / model,
    })
    return layers


# ----------------------------------------------------------------------
# repair-mem / repair-tcp


def _repair_cluster(seed: int):
    """The repair rig's cluster and its STF node, drawn from ``seed``."""
    config = PAPER_SIM_CONFIG.with_(
        num_nodes=REPAIR_NODES,
        num_stripes=REPAIR_STF_CHUNKS,
        num_hot_standby=0,
        chunk_size=REPAIR_CHUNK,
        disk_bandwidth=UNTHROTTLED,
        network_bandwidth=UNTHROTTLED,
        seed=seed,
    )
    return fixed_stf_chunk_count(config, REPAIR_STF_CHUNKS)


def _repair_rig(seed: int, codec, workdir: Path, tcp: bool, registry):
    cluster, stf = _repair_cluster(seed)
    network = None
    if tcp:
        network = TcpNetwork(metrics=registry)
        host, port = network.listen()
        for node_id in list(cluster.nodes) + [COORDINATOR_ID]:
            network.add_peer(node_id, host, port)
    bed = EmulatedTestbed(
        cluster, codec, workdir=workdir, network=network, metrics=registry
    )
    bed.start()
    bed.load_random_data(seed=seed)
    return bed, network, cluster, stf


def repair(seed: int, seconds: float, trace: bool, workdir: Path, tcp: bool) -> Outcome:
    codec = make_codec(CODE)
    outcome = Outcome()
    setups: List[float] = []
    plans: List[float] = []
    by_rig: List[List[float]] = []
    attempts: List[Tuple[float, int, bool]] = []
    for rig in range(REPAIR_RIGS):
        traced = trace and rig == REPAIR_RIGS - 1
        probe = LayerProbe() if traced else None
        with probe if probe is not None else nullcontext():
            if probe is not None:
                probe.install_all(type(codec))
            start = time.perf_counter()
            rig_seed = instance_seed(seed, rig, trace)
            bed, network, cluster, stf = _repair_rig(
                rig_seed, codec, workdir / f"rig{rig}", tcp,
                MetricsRegistry() if traced else None,
            )
            setups.append(time.perf_counter() - start)
            try:
                plan, plan_s = _plan(cluster, stf, rig_seed, outcome)
                plans.append(plan_s)
                check = _testbed_check(bed)
                durations: List[float] = []
                deadline = time.perf_counter() + seconds / REPAIR_RIGS
                while not durations or time.perf_counter() < deadline:
                    elapsed, bad, error = _repair_once(bed, plan, check)
                    repaired = _count_repair(outcome.tally, plan, bad, error)
                    durations.append(elapsed)
                    attempts.append(
                        (elapsed, (plan.total_chunks - bad) * REPAIR_CHUNK, repaired)
                    )
                by_rig.append(durations)
                if probe is not None:
                    outcome.layers = _rig_layers(
                        probe, bed, cluster, plan, durations
                    )
            finally:
                bed.shutdown(check_errors=False)
                if network is not None:
                    network.close()
    repair_seconds = [d for rig in by_rig for d in rig]
    outcome.metrics = {
        "setup_s": median(setups),
        "op_p50_ms": median(repair_seconds) * 1e3,
        "repair_mb_s": repair_mb_s(attempts),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.figures = {"plan_s": median(plans)}
    outcome.samples = {
        "setup_s": len(setups),
        "plan_s": len(plans),
        "op_p50_ms": len(repair_seconds),
    }
    if trace:
        untraced = [d for rig in by_rig[:-1] for d in rig]
        outcome.layers["obs.trace_overhead_frac"] = (
            median(by_rig[-1]) / median(untraced) - 1.0
        )
    return outcome


# ----------------------------------------------------------------------
# gateway-mix


def _payload(seed: int, index: int) -> bytes:
    rng = random.Random(seed * 1_000_003 + index)
    return rng.randbytes(rng.randint(OBJECT_MIN, OBJECT_MAX))


class _LiveKeys:
    """Keys with a known digest, for uniform draws and O(1) removal."""

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.digests: Dict[str, str] = {}
        self._where: Dict[str, int] = {}

    def add(self, key: str, data: bytes) -> None:
        self._where[key] = len(self.keys)
        self.keys.append(key)
        self.digests[key] = hashlib.sha256(data).hexdigest()

    def remove(self, key: str) -> None:
        index = self._where.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[index] = last
            self._where[last] = index
        del self.digests[key]

    def draw(self, rng: random.Random) -> str:
        return self.keys[rng.randrange(len(self.keys))]


def _gateway_rig(seed: int, codec, workdir: Path, registry):
    cluster = StorageCluster.random(
        GATEWAY_NODES,
        GATEWAY_STRIPES,
        codec.n,
        codec.k,
        seed=seed,
        disk_bandwidth=GATEWAY_DISK,
        network_bandwidth=GATEWAY_LINK,
        chunk_size=GATEWAY_CHUNK,
    )
    arbiter = TrafficArbiter(GATEWAY_LINK, client_floor=CLIENT_FLOOR)
    bed = EmulatedTestbed(
        cluster, codec, workdir=workdir, metrics=registry, arbiter=arbiter
    )
    bed.start()
    bed.load_random_data(seed=seed)
    store = ObjectStore(
        cluster,
        codec,
        bed.network,
        bandwidth=GATEWAY_LINK,
        chunk_size=GATEWAY_CHUNK,
        metrics=bed.metrics,
    )
    live = _LiveKeys()
    for index in range(GATEWAY_PRELOAD):
        data = _payload(seed, index)
        key = f"obj-{index}"
        store.put(key, data)
        live.add(key, data)
    storage = cluster.storage_node_ids()
    stf = max(storage, key=lambda node: (cluster.load_of(node), node))
    cluster.node(stf).mark_soon_to_fail()
    return bed, store, cluster, stf, live


def _stf_check(bed, cluster, stf):
    """Verification against the STF node's own copies.

    :meth:`EmulatedTestbed.verify_plan` knows the checksums of the
    chunks it loaded itself, not of stripes the gateway wrote, so the
    gateway rig compares each repaired chunk with the bytes the STF
    node held when the alarm was raised.
    """
    expected = {
        chunk.stripe_id: hashlib.sha256(
            bed.stores[stf].read(chunk.stripe_id)
        ).hexdigest()
        for chunk in cluster.chunks_on_node(stf)
    }

    def check(plan, result) -> int:
        actions = (
            result.executed_actions
            if result is not None and result.executed_actions
            else list(plan.actions())
        )
        bad = 0
        for action in actions:
            store = bed.stores[action.destination]
            if (
                not store.has(action.stripe_id)
                or hashlib.sha256(store.read(action.stripe_id)).hexdigest()
                != expected[action.stripe_id]
            ):
                bad += 1
        return bad

    return check


class _ClientStats:
    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {
            "get": [], "put": [], "delete": []
        }
        self.lag: List[float] = []
        #: seconds the client thread spent sending operations
        self.busy_s = 0.0


def _client_op(
    kind: str, key: str, data: Optional[bytes], store, live: _LiveKeys,
    tally: Tally,
) -> None:
    """One GET/PUT/DELETE with its output checked; failures counted.

    A DELETE's key left ``live`` when it was drawn.
    """
    try:
        if kind == "get":
            got = store.get(key)
            if hashlib.sha256(got).hexdigest() != live.digests[key]:
                tally.fail("get:wrong-bytes", wrong=f"GET {key} wrong bytes")
                return
        elif kind == "put":
            store.put(key, data)
            live.add(key, data)
        else:
            expected = len(store.stat(key).stripes) * store.codec.n
            if store.delete(key) != expected:
                tally.fail("delete:unacked")
                return
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        tally.fail(f"{kind}:{type(exc).__name__}")
        return
    tally.ok()


class _Clients:
    """The open-loop generator, one block of the mix at a time.

    It runs on one thread, as the gateway serves one request at a time.
    In a block, operation i is due at the block's start + i / rate; a
    request that starts late because an earlier one ran long is still
    timed from its due time, so stalls count against later requests.
    With ``rate`` None it runs closed-loop: each operation is due when
    the one before it ends.  A DELETE's key leaves the live set when
    the DELETE is drawn, and the DELETE itself waits for
    :meth:`deletes`, which the rig calls between repair attempts.
    """

    def __init__(
        self, seed: int, rate: Optional[float], store, live: _LiveKeys,
        tally: Tally, stats: _ClientStats,
    ) -> None:
        self.seed = seed
        self.rate = rate
        self.store = store
        self.live = live
        self.tally = tally
        self.stats = stats
        self._rng = random.Random(seed * 7919)
        self._next_key = GATEWAY_PRELOAD
        self._held: List[str] = []

    def block(self) -> None:
        """Send one shuffled block of the mix, holding its DELETEs back."""
        kinds = list(MIX_BLOCK)
        self._rng.shuffle(kinds)
        start = time.perf_counter()
        for index, kind in enumerate(kinds):
            if kind == "delete":
                key = self.live.draw(self._rng)
                self.live.remove(key)
                self._held.append(key)
                continue
            data = None
            if kind == "put":
                key = f"obj-{self._next_key}"
                data = _payload(self.seed, self._next_key)
                self._next_key += 1
            else:
                key = self.live.draw(self._rng)
            due = start + index / self.rate if self.rate else time.perf_counter()
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            self.stats.lag.append(time.perf_counter() - due)
            _client_op(kind, key, data, self.store, self.live, self.tally)
            self.stats.latency[kind].append(time.perf_counter() - due)
        self.stats.busy_s += time.perf_counter() - start

    def deletes(self) -> None:
        """Send the DELETEs held back, each timed from when it is sent."""
        for key in self._held:
            sent = time.perf_counter()
            _client_op("delete", key, None, self.store, self.live, self.tally)
            self.stats.latency["delete"].append(time.perf_counter() - sent)
            self.stats.busy_s += time.perf_counter() - sent
        self._held.clear()


def _start_attempt(bed, plan, check):
    """Start one repair attempt on its own thread; returns a waiter."""
    box: List[Tuple[float, int, Optional[Exception]]] = []
    thread = threading.Thread(
        target=lambda: box.append(_repair_once(bed, plan, check)),
        name="bench-repair",
        daemon=True,
    )
    thread.start()

    def wait() -> Tuple[float, int, Optional[Exception]]:
        thread.join(timeout=ATTEMPT_LIMIT_S)
        if not box:
            raise RuntimeError("repair attempt did not end")
        return box[0]

    return wait


@dataclass
class _Window:
    """What one gateway rig measured."""

    setup_s: float
    plan_s: float
    #: the plan's cost-model seconds per chunk
    model_s_per_chunk: float
    stats: _ClientStats
    #: repair attempts as (seconds, verified bytes, succeeded)
    attempts: List[Tuple[float, int, bool]]


def _gateway_window(
    seed: int, epochs: int, rate: Optional[float], codec, workdir: Path,
    registry, probe: Optional[LayerProbe], outcome: Outcome,
) -> _Window:
    """Set up one rig and run up to ``epochs`` epochs of clients under repair.

    An epoch starts one attempt of the FastPR plan made at the alarm
    and one block of the client mix together.  It ends when both have
    ended; then the block's DELETEs are sent.  So no DELETE overlaps a
    repair attempt, and whether an attempt meets a stripe an earlier
    DELETE removed (defect b) follows from the seed, not from thread
    timing.  The rig ends after its first failed attempt: every later
    attempt of its plan fails too, and after an attempt has timed out
    the next one waits about 17 s on the destination's stale assembly
    (defect c).  The clients send at ``rate`` operations per second, or
    closed-loop with ``rate`` None.  With a probe, its wrappers are on
    for the rig's whole life and the per-layer numbers land in
    ``outcome.layers``.
    """
    tally = outcome.tally
    start = time.perf_counter()
    bed, store, cluster, stf, live = _gateway_rig(seed, codec, workdir, registry)
    setup_s = time.perf_counter() - start
    attempts: List[Tuple[float, int, bool]] = []
    stats = _ClientStats()
    try:
        plan, plan_s = _plan(cluster, stf, seed, outcome)
        check = _stf_check(bed, cluster, stf)
        clients = _Clients(seed, rate, store, live, tally, stats)
        for _ in range(epochs):
            wait = _start_attempt(bed, plan, check)
            clients.block()
            elapsed, bad, error = wait()
            repaired = _count_repair(tally, plan, bad, error)
            attempts.append(
                (elapsed, (plan.total_chunks - bad) * GATEWAY_CHUNK, repaired)
            )
            clients.deletes()
            if not repaired:
                break
    finally:
        store.close()
        bed.shutdown(check_errors=False)
    if probe is not None:
        outcome.layers = _rig_layers(
            probe, bed, cluster, plan, [attempt[0] for attempt in attempts]
        )
        outcome.layers["gen.lag_p99_ms"] = (
            percentile(stats.lag, tail_level(stats.lag, 0.99)) * 1e3
        )
    return _Window(
        setup_s, plan_s, _model_seconds(cluster, plan) / plan.total_chunks,
        stats, attempts,
    )


def gateway_epochs(seconds: float) -> int:
    """Most epochs per rig: the run's blocks of the mix at ``GATEWAY_RATE``.

    An epoch lasts one block when its repair attempt ends first.  A rig
    whose attempt fails (defect b) ends early, after about 2 s more.
    """
    blocks = seconds * GATEWAY_RATE / len(MIX_BLOCK)
    return max(1, round(blocks / GATEWAY_RIGS))


def gateway_mix(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Open-loop clients on each rig while its STF node is repaired."""
    codec = make_codec(CODE)
    outcome = Outcome()
    windows: List[_Window] = []
    for rig in range(GATEWAY_RIGS):
        traced = trace and rig == GATEWAY_RIGS - 1
        probe = LayerProbe() if traced else None
        with probe if probe is not None else nullcontext():
            if probe is not None:
                probe.install_all(type(codec))
            windows.append(_gateway_window(
                instance_seed(seed, rig, trace), gateway_epochs(seconds),
                GATEWAY_RATE, codec, workdir / f"rig{rig}",
                MetricsRegistry() if traced else None, probe, outcome,
            ))
    setups = [window.setup_s for window in windows]
    plans = [window.plan_s for window in windows]
    per_chunk = [window.model_s_per_chunk for window in windows]
    rig_stats = [window.stats for window in windows]
    attempts = [attempt for window in windows for attempt in window.attempts]
    if trace:
        untraced = [s for st in rig_stats[:-1] for s in st.latency["get"]]
        outcome.layers["obs.trace_overhead_frac"] = (
            median(rig_stats[-1].latency["get"]) / median(untraced) - 1.0
        )
        rig_stats = rig_stats[:-1]
    gets = [s for st in rig_stats for s in st.latency["get"]]
    puts = [s for st in rig_stats for s in st.latency["put"]]
    outcome.metrics = {
        "setup_s": median(setups),
        "op_p50_ms": median(gets) * 1e3,
        "repair_mb_s": repair_mb_s(attempts),
        "peak_rss_mb": peak_rss_mb(),
    }
    repaired = sum(good for _, good, _ in attempts)
    repair_time = sum(elapsed for elapsed, _, _ in attempts)
    outcome.figures = {
        "repair_all_mb_s": repaired / repair_time / 1e6,
        "plan_s": median(plans),
        "plan_model_s_per_chunk": median(per_chunk),
        "get_p50_ms": median(gets) * 1e3,
        "put_p50_ms": median(puts) * 1e3,
        "gen_lag_p50_ms": median([s for st in rig_stats for s in st.lag]) * 1e3,
    }
    outcome.samples = {
        "setup_s": len(setups),
        "plan_s": len(plans),
        "op_p50_ms": len(gets),
        "get_p50_ms": len(gets),
        "put_p50_ms": len(puts),
        "deletes": sum(len(st.latency["delete"]) for st in rig_stats),
        "repair_attempts": len(attempts),
        "repair_mb_s": sum(ok for _, _, ok in attempts),
    }
    for name, samples, wanted in (("get", gets, 0.99), ("put", puts, 0.95)):
        level = tail_level(samples, wanted)
        figure = f"{name}_p{level * 100:g}_ms"
        outcome.figures[figure] = percentile(samples, level) * 1e3
        outcome.samples[figure] = len(samples)
    return outcome


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if name == "repair-mem":
            return repair(seed, seconds, trace, workdir, tcp=False)
        if name == "repair-tcp":
            return repair(seed, seconds, trace, workdir, tcp=True)
        if name == "gateway-mix":
            return gateway_mix(seed, seconds, trace, workdir)
        raise ValueError(f"unknown workload {name!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass


WORKLOADS = ("repair-mem", "repair-tcp", "gateway-mix")
