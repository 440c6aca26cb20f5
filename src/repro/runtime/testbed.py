"""The emulated testbed: our stand-in for the paper's EC2 deployment.

The paper evaluates FastPR on 25 EC2 instances running HDFS.  Offline,
we substitute a local multi-threaded deployment: every node is an
:class:`~repro.runtime.agent.Agent` with an on-disk chunk store and
emulated disk/NIC bandwidths; the coordinator drives repair rounds over
an in-process network.  Real chunk bytes are encoded, transferred
packet by packet, decoded with GF(2^8) arithmetic, and verified after
repair — the full data path of the prototype, at scaled-down chunk
sizes and bandwidths (see DESIGN.md, substitutions).

Fault injection: pass a :class:`~repro.runtime.faults.FaultPlan` (or
call :meth:`EmulatedTestbed.crash_node`) to kill nodes mid-repair,
drop/corrupt/duplicate packets, or degrade NICs — the coordinator's
supervised state machine then retries and replans until every chunk is
repaired or provably unrepairable.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..cluster.topology import RackTopology
from ..ec.codec import ErasureCodec
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .agent import Agent, AgentError
from .config import RuntimeConfig
from .coordinator import COORDINATOR_ID
from .datanode import ChunkStore, node_store
from .driver import (  # noqa: F401 - re-exported verification API
    ChunkMismatch,
    RepairDriver,
    VerificationError,
    chunk_digest,
    iter_encoded_stripes,
    mismatch_error,
)
from .faults import FaultInjector, FaultPlan
from .transport import Network


class EmulatedTestbed(RepairDriver):
    """A local cluster of agents with bandwidth emulation.

    The testbed is the :class:`~repro.runtime.driver.RepairDriver` of
    an in-process cluster: it adds the agents, their stores and the
    data load, and inherits everything on the coordinator's side —
    :meth:`execute`, :meth:`execute_sharded`, coordinator crashes and
    :meth:`restart_coordinator` / :meth:`resume`, and
    :meth:`verify_plan`.

    Args:
        cluster: metadata (placements, bandwidths, chunk size).  The
            cluster's ``disk_bandwidth``/``network_bandwidth`` become
            the emulated rates; the chunk size is used verbatim, so
            scale it down (e.g. 1 MiB) for fast runs.
        codec: erasure codec matching the cluster's stripes.
        packet_size: transfer granularity (the paper's Experiment B.1
            knob); defaults to chunk_size / 16.
        workdir: directory for chunk files; a temp dir by default.
        config / faults / journal_path / topology: as for
            :class:`~repro.runtime.driver.RepairDriver`; ``config``
            defaults are production-like (tests pass tighter ones).
        metrics: shared :class:`~repro.obs.MetricsRegistry` for the
            whole run (coordinator, agents, transport, journal); a
            fresh registry is created when omitted.
        tracer: shared :class:`~repro.obs.Tracer`; a fresh enabled
            wall-clock tracer is created when omitted (span volume is
            bounded by the run's action count).
        network: alternative transport backend (e.g. a loopback-wired
            :class:`repro.net.TcpNetwork`); the testbed attaches every
            node to it and, when a fault plan is given, installs its
            injector on it.  Defaults to a fresh in-memory
            :class:`~repro.runtime.transport.Network`.
        arbiter: optional :class:`repro.gateway.TrafficArbiter`,
            installed on the network so repair traffic cannot starve
            client GETs.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        codec: ErasureCodec,
        packet_size: Optional[int] = None,
        workdir: Optional[Path] = None,
        config: Optional[RuntimeConfig] = None,
        faults: Optional[FaultPlan] = None,
        journal_path: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        network: Optional[Network] = None,
        topology: Optional[RackTopology] = None,
        arbiter=None,
    ):
        self._own_workdir = workdir is None
        workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="fastpr-"))
        config = config or RuntimeConfig()
        metrics = metrics if metrics is not None else MetricsRegistry()
        tracer = tracer if tracer is not None else Tracer()
        self.topology = topology
        if network is None:
            network = Network(
                metrics=metrics, inbox_capacity=config.inbox_capacity
            )
        self.arbiter = arbiter
        if arbiter is not None:
            network.arbiter = arbiter
        #: set at shutdown; interrupts every throttled sleep in flight
        self._stop = threading.Event()
        self.stores: Dict[NodeId, ChunkStore] = {}
        self.agents: Dict[NodeId, Agent] = {}
        for node_id, node in sorted(cluster.nodes.items()):
            network.attach(
                node_id,
                node.network_bandwidth or cluster.network_bandwidth,
                stop=self._stop,
            )
            store = node_store(
                cluster, workdir, node_id, stop=self._stop, metrics=metrics
            )
            self.stores[node_id] = store
            self.agents[node_id] = Agent(
                node_id,
                store,
                network,
                coordinator_id=COORDINATOR_ID,
                config=config,
                metrics=metrics,
                tracer=tracer,
            )
        super().__init__(
            network,
            cluster,
            codec,
            workdir,
            packet_size=packet_size,
            config=config,
            faults=faults,
            topology=topology,
            journal_path=journal_path,
            metrics=metrics,
            tracer=tracer,
        )
        if self.faults is not None:
            network.faults = self.faults
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._stop.clear()
        heartbeat = self.faults is not None
        for agent in self.agents.values():
            agent.start(heartbeat=heartbeat)
        self._started = True

    def shutdown(self, check_errors: bool = True) -> None:
        """Stop every agent; surfaces recorded agent errors.

        Args:
            check_errors: assert that no surviving agent recorded an
                unreported error (crashed nodes are excused — a dead
                process files no reports).
        """
        self._stop.set()  # interrupt every throttled sleep in flight
        for agent in self.agents.values():
            agent.stop()
        self.close()
        self._started = False
        errors = {
            node_id: agent.errors
            for node_id, agent in self.agents.items()
            if agent.errors and not agent.crashed
        }
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
        if check_errors and errors:
            summary = "; ".join(
                f"node {node_id}: {errs[0]!r}" for node_id, errs in errors.items()
            )
            raise AgentError(f"agents recorded unhandled errors: {summary}")

    def __enter__(self) -> "EmulatedTestbed":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        # Don't let the teardown error check shadow an in-flight one.
        self.shutdown(check_errors=exc[0] is None)

    # ------------------------------------------------------------------

    def crash_node(self, node_id: NodeId) -> None:
        """Kill a node right now (manual fault trigger).

        Its endpoint goes dark and its agent stands down; the
        coordinator discovers the death via deadlines + probing.
        """
        if self.faults is None:
            self.faults = FaultInjector(on_crash=self._on_node_crash)
            self.network.faults = self.faults
        self.faults.kill(node_id)

    def load_random_data(self, seed: Optional[int] = None) -> None:
        """Encode and store every stripe's chunks (unthrottled bulk load).

        Remembers per-chunk checksums so :meth:`verify_plan` can prove
        the repair restored the exact original bytes.
        """
        for stripe, coded in iter_encoded_stripes(
            self.cluster, self.codec, seed
        ):
            for index, node_id in enumerate(stripe.placement):
                self.stores[node_id].put(stripe.stripe_id, coded[index])
                self.checksums[(stripe.stripe_id, index)] = chunk_digest(
                    coded[index]
                )

    # -- RepairDriver hooks ----------------------------------------------

    def _on_node_crash(self, node_id: NodeId) -> None:
        agent = self.agents.get(node_id)
        if agent is not None:
            agent.crash()

    def _before_run(self) -> None:
        if not self._started:
            raise RuntimeError("call start() (or use as a context manager) first")

    def _after_run(self) -> None:
        for agent in self.agents.values():
            if agent.errors and not agent.crashed:
                raise agent.errors[0]
