"""Process-per-node launch: peer specs, transports and standalone agents.

This module is the glue behind ``fastpr agent`` and the wire
transports of ``fastpr repair``: it turns a cluster snapshot plus a
peer map (TCP) or a shared workdir (shm) into listening transports
(:func:`tcp_network`, :func:`shm_network`) for real OS processes
talking :mod:`repro.net.wire` frames.  The coordinator's side of the
repair is :class:`~repro.runtime.driver.RepairDriver`, the same on
every transport.

Peer specs name every process's listen address::

    0=127.0.0.1:9100,1=127.0.0.1:9101,coordinator=127.0.0.1:9099

or, equivalently, ``@peers.json`` pointing at a JSON object with the
same keys.  ``coordinator`` (or ``-1``) is the coordinator's address;
integer keys are storage nodes.

Data loading is deterministic and *distributed*: every agent process
walks the same :func:`~repro.runtime.driver.iter_encoded_stripes`
stream — one sequential RNG seeded identically everywhere — and keeps
only its own node's chunks.  The driver hashes the same stream, so
after the repair it can prove, from the shared ``--workdir``
filesystem, that every repaired chunk is byte-identical to the
original without any chunk ever crossing a non-repair channel.
"""

from __future__ import annotations

import hashlib
import json
import socket
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..ec.codec import ErasureCodec
from ..gateway.store import CLIENT_ID, GATEWAY_ID
from ..obs.metrics import MetricsRegistry
from ..runtime.agent import Agent
from ..runtime.config import DEFAULT_CONFIG, RuntimeConfig
from ..runtime.coordinator import COORDINATOR_ID, shard_coordinator_id
from ..runtime.datanode import ChunkStore, node_store
from ..runtime.driver import iter_encoded_stripes
from ..runtime.faults import FaultInjector, FaultPlan
from ..runtime.messages import Shutdown
from .shm import ShmNetwork
from .tcp import TcpNetwork

#: peer-spec alias for the coordinator's node id
COORDINATOR_ALIAS = "coordinator"
#: peer-spec alias for the object gateway's endpoint
GATEWAY_ALIAS = "gateway"
#: peer-spec alias for the object client's endpoint
CLIENT_ALIAS = "client"

PeerMap = Dict[NodeId, Tuple[str, int]]
#: node ids a process hosts itself -> their NIC bandwidth (None = unthrottled)
LocalNodes = Dict[NodeId, Optional[float]]


# ----------------------------------------------------------------------
# shared-memory topology: ring names derived from the workdir
# ----------------------------------------------------------------------


def shm_ring_name(workdir: Path, node_id: NodeId) -> str:
    """Deterministic ring name for a node's process under a workdir.

    Every process of one repair shares the ``--workdir``, so hashing
    its absolute path gives all of them the same namespace without any
    peer spec: node ``n`` listens on ``fpr<hash>-<n>``, the coordinator
    on ``fpr<hash>-c`` (shard ``k`` on ``fpr<hash>-c<k>``), the object
    gateway on ``fpr<hash>-g`` and the object client on
    ``fpr<hash>-u``.
    """
    digest = hashlib.sha1(
        str(Path(workdir).resolve()).encode("utf-8")
    ).hexdigest()[:10]
    if node_id == COORDINATOR_ID:
        key = "c"
    elif node_id == GATEWAY_ID:
        key = "g"
    elif node_id == CLIENT_ID:
        key = "u"
    elif node_id < 0:
        key = f"c{-node_id - 1}"
    else:
        key = str(node_id)
    return f"fpr{digest}-{key}"


class PeerSpecError(ValueError):
    """A malformed ``--peers`` value."""


def parse_peer_spec(spec: str) -> PeerMap:
    """Parse ``--peers`` into ``{node_id: (host, port)}``.

    Accepts a comma-separated list of ``node=host:port`` entries (with
    ``coordinator`` aliasing :data:`COORDINATOR_ID` and
    ``coordinator<k>`` aliasing shard ``k``'s endpoint ``-(k+1)`` —
    ``coordinator0`` is the plain ``coordinator``) or ``@file.json``
    naming a JSON object of the same shape.
    """
    entries: Dict[str, str] = {}
    if spec.startswith("@"):
        try:
            document = json.loads(Path(spec[1:]).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise PeerSpecError(f"cannot read peer file {spec[1:]}: {exc}")
        if not isinstance(document, dict):
            raise PeerSpecError("peer file must hold a JSON object")
        entries = {str(k): str(v) for k, v in document.items()}
    else:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise PeerSpecError(
                    f"peer entry {item!r} is not node=host:port"
                )
            name, address = item.split("=", 1)
            entries[name.strip()] = address.strip()
    peers: PeerMap = {}
    for name, address in entries.items():
        if name == COORDINATOR_ALIAS:
            node_id = COORDINATOR_ID
        elif name == GATEWAY_ALIAS:
            node_id = GATEWAY_ID
        elif name == CLIENT_ALIAS:
            node_id = CLIENT_ID
        elif name.startswith(COORDINATOR_ALIAS):
            try:
                node_id = shard_coordinator_id(int(name[len(COORDINATOR_ALIAS):]))
            except ValueError:
                raise PeerSpecError(f"unknown peer name {name!r}")
        else:
            try:
                node_id = int(name)
            except ValueError:
                raise PeerSpecError(f"unknown peer name {name!r}")
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise PeerSpecError(f"peer address {address!r} is not host:port")
        try:
            peers[node_id] = (host, int(port))
        except ValueError:
            raise PeerSpecError(f"peer port {port!r} is not an integer")
    if not peers:
        raise PeerSpecError("empty peer spec")
    return peers


def format_peer_spec(peers: PeerMap) -> str:
    """Inverse of :func:`parse_peer_spec` (comma-list form)."""
    parts = []
    for node_id in sorted(peers):
        host, port = peers[node_id]
        if node_id == COORDINATOR_ID:
            name = COORDINATOR_ALIAS
        elif node_id == GATEWAY_ID:
            name = GATEWAY_ALIAS
        elif node_id == CLIENT_ID:
            name = CLIENT_ALIAS
        elif node_id < 0:
            name = f"{COORDINATOR_ALIAS}{-node_id - 1}"
        else:
            name = str(node_id)
        parts.append(f"{name}={host}:{port}")
    return ",".join(parts)


def sharded_peer_spec(peers: PeerMap, num_coordinators: int) -> PeerMap:
    """Extend a peer map with every shard coordinator's endpoint.

    All shard coordinators run inside the one driver process, so each
    ``coordinator<k>`` alias points at the *same* address as the plain
    ``coordinator`` entry — agents just open one connection per
    endpoint id to it.
    """
    address = peers.get(COORDINATOR_ID)
    if address is None:
        raise PeerSpecError(
            "peer spec has no coordinator address to shard"
        )
    extended = dict(peers)
    for shard in range(num_coordinators):
        extended[shard_coordinator_id(shard)] = address
    return extended


def allocate_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` currently free TCP ports (test/driver helper).

    The ports are bound, recorded and released — a race with other
    processes is possible but irrelevant on a test host.
    """
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


# ----------------------------------------------------------------------
# deterministic distributed data loading
# ----------------------------------------------------------------------


def load_node_data(
    cluster: StorageCluster,
    codec: ErasureCodec,
    seed: Optional[int],
    store: ChunkStore,
    node_id: NodeId,
) -> int:
    """Store ``node_id``'s chunk of every stripe placed on it.

    Walks the full deterministic encode stream (so the bytes match the
    other agents' and the driver's view exactly) but writes only this
    node's chunks; returns how many were stored.
    """
    loaded = 0
    for stripe, coded in iter_encoded_stripes(cluster, codec, seed):
        for index, placed in enumerate(stripe.placement):
            if placed == node_id:
                store.put(stripe.stripe_id, coded[index])
                loaded += 1
    return loaded


# ----------------------------------------------------------------------
# per-process transports and the standalone agent
# ----------------------------------------------------------------------


def tcp_network(
    peers: PeerMap,
    listen: Optional[Tuple[str, int]] = None,
    config: Optional[RuntimeConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    local: Optional[LocalNodes] = None,
) -> TcpNetwork:
    """A listening :class:`TcpNetwork` for one process.

    ``local`` nodes are attached before the socket opens, so no early
    frame finds them missing; every other entry of ``peers`` becomes a
    remote peer.
    """
    cfg = config or DEFAULT_CONFIG
    local = local or {}
    network = TcpNetwork(
        metrics=metrics,
        inbox_capacity=cfg.inbox_capacity,
        send_queue_capacity=cfg.send_queue_capacity,
        connect_timeout=cfg.connect_timeout,
        drain_timeout=cfg.drain_timeout,
    )
    for node_id, bandwidth in local.items():
        network.attach(node_id, bandwidth)
    if listen is not None:
        network.listen(*listen)
    for peer_id, (host, port) in peers.items():
        if peer_id not in local:
            network.add_peer(peer_id, host, port)
    return network


def shm_network(
    workdir: Path,
    own_id: NodeId,
    peer_ids: Iterable[NodeId],
    config: Optional[RuntimeConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    local: Optional[LocalNodes] = None,
) -> ShmNetwork:
    """A listening :class:`ShmNetwork` for the process of ``own_id``.

    No peer spec: it listens on ``own_id``'s ring and reaches every
    other id of ``peer_ids`` at its :func:`shm_ring_name` under the
    shared ``workdir``.  Rings attach lazily, so processes may start
    in any order.  ``local`` is as for :func:`tcp_network`.
    """
    cfg = config or DEFAULT_CONFIG
    local = local or {}
    network = ShmNetwork(
        metrics=metrics,
        inbox_capacity=cfg.inbox_capacity,
        connect_timeout=cfg.connect_timeout,
    )
    for node_id, bandwidth in local.items():
        network.attach(node_id, bandwidth)
    network.listen(shm_ring_name(workdir, own_id))
    for peer_id in peer_ids:
        if peer_id != own_id and peer_id not in local:
            network.add_peer(peer_id, shm_ring_name(workdir, peer_id))
    return network


def run_agent_process(
    cluster: StorageCluster,
    codec: ErasureCodec,
    node_id: NodeId,
    network,
    workdir: Path,
    seed: Optional[int] = None,
    config: Optional[RuntimeConfig] = None,
    load_data: bool = True,
    faults: Optional[FaultPlan] = None,
) -> int:
    """Run one standalone repair agent until the coordinator shuts it down.

    ``network`` is a built transport (:func:`tcp_network` or
    :func:`shm_network`) that already hosts ``node_id``.  Blocks until
    a :class:`~repro.runtime.messages.Shutdown` frame arrives
    (``fastpr repair`` broadcasts one after the run), then closes the
    network.  Returns the number of chunks the agent loaded at startup.

    ``faults`` injects the same declarative
    :class:`~repro.runtime.faults.FaultPlan` the in-memory testbed
    takes; packet-level faults apply on this process's *sending* side,
    so the whole cluster running one shared plan injects each fault
    exactly once.
    """
    agent_box: list = []
    injector = None
    if faults is not None:
        def _on_crash(victim: NodeId) -> None:
            if victim == node_id and agent_box:
                agent_box[0].crash()

        injector = FaultInjector(faults, on_crash=_on_crash)
        network.faults = injector
    store = node_store(cluster, workdir, node_id)
    loaded = 0
    if load_data:
        loaded = load_node_data(cluster, codec, seed, store, node_id)
    agent = Agent(
        node_id,
        store,
        network,
        coordinator_id=COORDINATOR_ID,
        config=config or DEFAULT_CONFIG,
    )
    agent_box.append(agent)
    if injector is not None:
        injector.start()
    agent.start(heartbeat=True)
    try:
        agent.done.wait()
    finally:
        agent.stop()
        network.close()
    return loaded


def shutdown_agents(network, nodes: Iterable[NodeId]) -> None:
    """Broadcast Shutdown so standalone agent processes exit cleanly."""
    for node_id in sorted(n for n in set(nodes) if n >= 0):
        try:
            network.send(COORDINATOR_ID, node_id, Shutdown())
        except KeyError:
            pass  # already detached/dead
