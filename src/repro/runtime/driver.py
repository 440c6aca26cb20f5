"""The coordinator side of a repair, on any started transport.

:class:`RepairDriver` turns a plan into a finished, verified repair
over any :class:`~repro.runtime.transport.Transport`: the in-process
fabric of :class:`~repro.runtime.testbed.EmulatedTestbed` (a
subclass), or a :class:`~repro.net.TcpNetwork` /
:class:`~repro.net.ShmNetwork` whose agents run in other processes.
It builds or recovers the coordinator (or the shard coordinators),
places the journals, arms the fault plan, restarts a crashed
coordinator from its journal, and closes the coordinators
(:meth:`RepairDriver.run`).  :func:`verify_repaired` then compares
the repaired ``workdir/node_<id>/stripe_<s>.chunk`` files, which
every :class:`~repro.runtime.datanode.ChunkStore` writes, with
checksums of the deterministic data set of
:func:`iter_encoded_stripes` — the stream every agent loads from.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..cluster.topology import RackTopology
from ..core.plan import RepairPlan
from ..core.scheduling import HelperBudget
from ..ec.codec import ErasureCodec
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .config import DEFAULT_CONFIG, RuntimeConfig
from .coordinator import COORDINATOR_ID, Coordinator, RuntimeResult
from .faults import CoordinatorCrashFault, FaultInjector, FaultPlan
from .journal import CoordinatorCrash, RepairJournal
from .multicoord import MultiCoordinator, MultiRepairResult

Checksums = Dict[Tuple[int, int], str]


@dataclass(frozen=True)
class ChunkMismatch:
    """One chunk that failed post-repair verification."""

    stripe_id: int
    chunk_index: int
    node_id: NodeId
    #: ``"missing"`` (destination has no chunk) or ``"mismatch"``
    #: (bytes differ from the load-time original)
    reason: str


class VerificationError(AssertionError):
    """Raised when repaired chunks' bytes do not match the originals.

    Carries *every* failing chunk in :attr:`mismatches` (not just the
    first), so callers — notably ``fastpr repair`` — can log the full
    set of mismatching chunk ids and exit non-zero.
    """

    def __init__(self, message: str, mismatches: Sequence[ChunkMismatch] = ()):
        super().__init__(message)
        self.mismatches: List[ChunkMismatch] = list(mismatches)


def mismatch_error(mismatches: Sequence[ChunkMismatch]) -> VerificationError:
    """Build a :class:`VerificationError` naming every failing chunk."""
    ids = "; ".join(
        f"stripe {m.stripe_id} chunk {m.chunk_index} at node {m.node_id} "
        f"({m.reason})"
        for m in mismatches
    )
    return VerificationError(
        f"{len(mismatches)} chunk(s) failed post-repair verification: {ids}",
        mismatches,
    )


def iter_encoded_stripes(
    cluster: StorageCluster, codec: ErasureCodec, seed: Optional[int] = None
):
    """Yield ``(stripe, coded_chunks)`` for every stripe, deterministically.

    One sequential RNG stream (seeded by ``seed``) generates the data
    chunks of every stripe in stripe order, so *any* consumer of the
    same ``(cluster, codec, seed)`` triple sees byte-identical chunks —
    the testbed loads them all into local stores, while each agent
    process walks the same stream and keeps only its own node's chunks
    (see :func:`repro.net.launch.load_node_data`).
    """
    rng = random.Random(seed)
    chunk_size = cluster.chunk_size
    stripes = list(cluster.stripes())
    # Encode in windows through ``encode_batch`` (one wide GF matmul per
    # window).  The RNG stream is untouched: data chunks are still drawn
    # sequentially in stripe order, so the bytes are identical to the
    # one-stripe-at-a-time path.
    window = 16
    for start in range(0, len(stripes), window):
        batch = stripes[start : start + window]
        data = [
            [
                rng.getrandbits(8 * chunk_size).to_bytes(chunk_size, "little")
                for _ in range(stripe.k)
            ]
            for stripe in batch
        ]
        for stripe, coded in zip(batch, codec.encode_batch(data)):
            yield stripe, coded


def chunk_digest(data: bytes) -> str:
    """The checksum verification compares (SHA-256, hex)."""
    return hashlib.sha256(data).hexdigest()


def stripe_checksums(
    cluster: StorageCluster, codec: ErasureCodec, seed: Optional[int]
) -> Checksums:
    """:func:`chunk_digest` of every ``(stripe_id, chunk_index)``."""
    return {
        (stripe.stripe_id, index): chunk_digest(chunk)
        for stripe, coded in iter_encoded_stripes(cluster, codec, seed)
        for index, chunk in enumerate(coded)
    }


def verify_repaired(
    actions: Iterable, checksums: Checksums, workdir: Path
) -> int:
    """Prove repaired chunks byte-identical; returns how many were checked.

    Reads each action's destination chunk file
    (``workdir/node_<id>/stripe_<s>.chunk``) and compares it with the
    original's checksum.  Raises :class:`VerificationError` naming
    every missing or differing chunk, not just the first.
    """
    verified = 0
    mismatches = []
    for action in actions:
        path = (
            Path(workdir)
            / f"node_{action.destination}"
            / f"stripe_{action.stripe_id}.chunk"
        )
        if not path.exists():
            reason = "missing"
        elif chunk_digest(path.read_bytes()) != checksums[
            (action.stripe_id, action.chunk_index)
        ]:
            reason = "mismatch"
        else:
            verified += 1
            continue
        mismatches.append(
            ChunkMismatch(
                action.stripe_id, action.chunk_index, action.destination, reason
            )
        )
    if mismatches:
        raise mismatch_error(mismatches)
    return verified


def resolve_fault_plan(
    faults: FaultPlan, topology: Optional[RackTopology]
) -> FaultPlan:
    """Expand domain crashes into node crashes; they need a topology."""
    if not faults.domain_crashes:
        return faults
    if topology is None:
        raise ValueError(
            "fault plan has domain_crashes but no topology was given "
            "to resolve them against"
        )
    return faults.resolve_domains(topology)


class RepairDriver:
    """Coordinator-side lifecycle of repairs over one started transport.

    Args:
        network: the transport; the coordinator attaches to it here.
            Agents must be reachable through it (in-process, or remote
            peers — see :meth:`wait_for_agents`).
        cluster / codec: what the plans repair.
        workdir: the directory holding every node's chunk store
            (``node_<id>/``); default home of the journals.
        packet_size: transfer granularity (default chunk/16, >= 4 KiB).
        config: runtime timeouts and retry policy.
        faults: declarative fault plan.  Domain crashes are resolved
            against ``topology``; coordinator crashes are armed on
            successive coordinator incarnations.  The injector is
            installed on ``network`` when a repair starts.
        topology: rack/machine failure domains; required when the
            fault plan has domain crashes.
        journal_path: the single coordinator's write-ahead journal;
            default ``workdir/repair.journal`` when the fault plan
            kills coordinators, else no journal.
        resume: recover the coordinator from ``journal_path`` instead
            of building a fresh one; :meth:`run` then resumes.
        metrics / tracer: observability sinks shared with the
            coordinators.

    Subclasses hosting their agents in-process (the
    :class:`~repro.runtime.testbed.EmulatedTestbed`) hook in through
    :meth:`_on_node_crash`, :meth:`_before_run` and :meth:`_after_run`.
    """

    def __init__(
        self,
        network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        workdir: Path,
        packet_size: Optional[int] = None,
        config: Optional[RuntimeConfig] = None,
        faults: Optional[FaultPlan] = None,
        topology: Optional[RackTopology] = None,
        journal_path: Optional[Path] = None,
        resume: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.network = network
        self.cluster = cluster
        self.codec = codec
        self.workdir = Path(workdir)
        self.packet_size = packet_size or max(cluster.chunk_size // 16, 4096)
        self.config = config or DEFAULT_CONFIG
        self.metrics = metrics
        self.tracer = tracer
        #: ``(stripe_id, chunk_index) -> checksum`` of the original data
        self.checksums: Checksums = {}
        self.faults: Optional[FaultInjector] = None
        self._crash_faults: List[CoordinatorCrashFault] = []
        if faults is not None:
            faults = resolve_fault_plan(faults, topology)
            self.faults = FaultInjector(
                faults,
                on_crash=self._on_node_crash,
                on_kill_coordinator=self._kill_shard,
            )
            self._crash_faults = list(faults.coordinator_crashes)
        self.journal_path: Optional[Path] = (
            Path(journal_path) if journal_path else None
        )
        if self.journal_path is None and self._crash_faults:
            self.journal_path = self.workdir / "repair.journal"
        self._resume = resume
        if resume:
            if self.journal_path is None:
                raise ValueError("resume needs a journal path")
            self.coordinator = self._recover()
        else:
            self.coordinator = Coordinator(
                network,
                cluster,
                codec,
                self.packet_size,
                config=self.config,
                journal=(
                    self._journal(self.journal_path)
                    if self.journal_path is not None
                    else None
                ),
                metrics=metrics,
                tracer=tracer,
            )
        self.multi: Optional[MultiCoordinator] = None
        self._arm_next_coordinator_crash()

    # -- hooks -----------------------------------------------------------

    def _on_node_crash(self, node_id: NodeId) -> None:
        """The injector killed ``node_id`` (remote agents die on their own)."""

    def _before_run(self) -> None:
        """Called before every execute/resume."""

    def _after_run(self) -> None:
        """Called after every execute/resume that returned."""

    # -- journals and coordinator crashes --------------------------------

    def _journal(self, path: Path) -> RepairJournal:
        return RepairJournal(
            path, fsync=self.config.journal_fsync, metrics=self.metrics
        )

    def _ensure_journal(self) -> RepairJournal:
        """Enable journaling lazily (kill hooks may arm it post-build)."""
        if self.coordinator.journal is None:
            if self.journal_path is None:
                self.journal_path = self.workdir / "repair.journal"
            self.coordinator.journal = self._journal(self.journal_path)
        return self.coordinator.journal

    def _arm_next_coordinator_crash(self) -> None:
        if not self._crash_faults:
            return
        fault = self._crash_faults.pop(0)
        journal = self._ensure_journal()
        if fault.after_records is not None:
            journal.crash_after_records = fault.after_records
        else:
            self.coordinator.crash_after_round = fault.after_round

    def kill_coordinator_after(self, records: int) -> None:
        """Arm a deterministic coordinator death.

        The coordinator raises
        :class:`~repro.runtime.journal.CoordinatorCrash` out of
        :meth:`execute` (or :meth:`resume`) immediately after this
        incarnation's ``records``-th journal record is durably written
        — the exact window a real process death leaves behind: state
        journaled, action not yet taken.
        """
        self._ensure_journal().crash_after_records = records

    def _kill_shard(self, shard: int) -> None:
        if self.multi is not None:
            self.multi.kill_shard(shard)

    def _recover(self) -> Coordinator:
        return Coordinator.recover(
            self.journal_path,
            self.network,
            self.cluster,
            self.codec,
            config=self.config,
            packet_size=self.packet_size,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    def _retire_coordinator(self) -> None:
        """Close the coordinator and free its endpoint for a successor."""
        self.coordinator.close()
        try:
            self.network.detach(COORDINATOR_ID)
        except KeyError:
            pass

    def restart_coordinator(self) -> Coordinator:
        """Replace a crashed coordinator with a recovering successor.

        Detaches the dead incarnation's endpoint, replays the journal
        via :meth:`Coordinator.recover`, installs the successor (one
        epoch up) and arms the fault plan's next coordinator crash on
        it.  Call :meth:`resume` to finish the repair.
        """
        if self.journal_path is None:
            raise RuntimeError("no journal: coordinator cannot be recovered")
        self._retire_coordinator()
        self.coordinator = self._recover()
        self._arm_next_coordinator_crash()
        return self.coordinator

    # -- execution -------------------------------------------------------

    def _start_faults(self) -> None:
        """Install the injector; fault time zero is the repair's start."""
        if self.faults is not None:
            self.network.faults = self.faults
            self.faults.start()

    def _repair(self, work: Callable[[], RuntimeResult], start_faults: bool):
        """One execution, inside an arbiter flow when QoS is on."""
        self._before_run()
        if start_faults:
            self._start_faults()
        arbiter = getattr(self.network, "arbiter", None)
        with arbiter.register("repair") if arbiter is not None else nullcontext():
            result = work()
        self._after_run()
        return result

    def execute(
        self, plan: RepairPlan, packet_size: Optional[int] = None
    ) -> RuntimeResult:
        """Run ``plan`` once through the single coordinator."""
        return self._repair(
            lambda: self.coordinator.execute(plan, packet_size=packet_size),
            start_faults=True,
        )

    def resume(self) -> RuntimeResult:
        """Finish a recovered repair (see :meth:`Coordinator.resume`)."""
        return self._repair(self.coordinator.resume, start_faults=False)

    def execute_sharded(
        self,
        plan: RepairPlan,
        num_coordinators: int = 2,
        packet_size: Optional[int] = None,
        budget: Optional[HelperBudget] = None,
        journal_dir: Optional[Path] = None,
    ) -> MultiRepairResult:
        """Run ``plan`` under ``num_coordinators`` shard coordinators.

        The single coordinator's endpoint is handed over to shard 0
        (same id ``-1``, so agent heartbeats stay addressed); each
        shard journals to ``journal_dir/shard-<k>.journal`` (default
        ``workdir/shards``) and a crashed shard is adopted by a
        survivor (see :class:`~repro.runtime.multicoord.\
MultiCoordinator`).  Domain crash faults that list co-located
        ``coordinators`` kill the matching shard's coordinator mid-run.
        """
        self._before_run()
        if self.multi is None:
            self._retire_coordinator()
            self.multi = MultiCoordinator(
                self.network,
                self.cluster,
                self.codec,
                self.packet_size,
                journal_dir=(
                    Path(journal_dir)
                    if journal_dir is not None
                    else self.workdir / "shards"
                ),
                num_shards=num_coordinators,
                config=self.config,
                budget=budget,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        elif self.multi.shard_map.num_shards != num_coordinators:
            raise RuntimeError(
                "already built a MultiCoordinator with "
                f"{self.multi.shard_map.num_shards} shards"
            )
        return self._repair(
            lambda: self.multi.execute(plan, packet_size=packet_size),
            start_faults=True,
        )

    def run(
        self,
        plan: RepairPlan,
        coordinators: int = 1,
        journal_dir: Optional[Path] = None,
        max_restarts: int = 8,
        log: Optional[Callable[[str], None]] = None,
    ):
        """Drive ``plan`` to completion; returns ``(result, restarts)``.

        Sharded runs report shard takeovers as restarts.  A single
        coordinator that crashes is recovered from its journal under a
        bumped epoch, at most ``max_restarts`` times, so a crash plan
        denser than the plan's rounds still ends (re-raising the
        crash).  The coordinators are closed on the way out.
        """
        say = log or (lambda message: None)
        try:
            if coordinators > 1:
                result = self.execute_sharded(
                    plan, coordinators, journal_dir=journal_dir
                )
                for event in result.takeovers:
                    say(
                        f"shard {event.shard} taken over by shard "
                        f"{event.adopter} (epoch {event.epoch})"
                    )
                return result, len(result.takeovers)
            restarts = 0
            try:
                if self._resume:
                    result = self._repair(
                        self.coordinator.resume, start_faults=True
                    )
                else:
                    result = self.execute(plan)
            except CoordinatorCrash as crash:
                say(f"coordinator crashed: {crash}; recovering from journal")
                while True:
                    restarts += 1
                    if restarts > max_restarts:
                        raise
                    self.restart_coordinator()
                    try:
                        result = self.resume()
                        break
                    except CoordinatorCrash as again:
                        say(f"coordinator crashed again: {again}; recovering")
            return result, restarts
        finally:
            self.close()

    def verify_plan(
        self, plan: RepairPlan, result: Optional[RuntimeResult] = None
    ) -> int:
        """Check every repaired chunk against :attr:`checksums`.

        Pass the run's ``result`` when faults may have replanned
        actions, so the *effective* destinations are checked.  Returns
        how many chunks were checked; raises :class:`VerificationError`
        naming every missing or differing one.
        """
        if result is not None and result.executed_actions:
            actions = result.executed_actions
        else:
            actions = list(plan.actions())
        return verify_repaired(actions, self.checksums, self.workdir)

    def wait_for_agents(
        self, nodes: Iterable[NodeId], timeout: float = 60.0
    ) -> None:
        """Block until every agent answers a ping (or raise on timeout)."""
        pending = set(nodes) - {COORDINATOR_ID}
        deadline = time.monotonic() + timeout
        while pending:
            pending -= self.coordinator._probe(set(pending))
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"agents never came up: {sorted(pending)} unreachable "
                    f"after {timeout}s"
                )
            time.sleep(0.2)

    def close(self) -> None:
        """Release every coordinator's journal handle (idempotent)."""
        self.coordinator.close()
        if self.multi is not None:
            self.multi.close()
