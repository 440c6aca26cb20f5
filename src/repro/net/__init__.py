"""repro.net — versioned wire protocol + TCP and shm transports.

The runtime's messages travel either over the in-memory fabric
(:class:`repro.runtime.transport.Network`) or, via this package,
between separate OS processes: :mod:`repro.net.wire` defines the
length-prefixed CRC-checked frame format, and
:class:`repro.net.tcp.TcpNetwork` (asyncio TCP, DESIGN.md §10) and
:class:`repro.net.shm.ShmNetwork` (shared-memory rings, §13) implement
the shared :class:`~repro.runtime.transport.Transport` interface.
:mod:`repro.net.launch` builds one process's transport
(:func:`tcp_network`, :func:`shm_network`) and runs the standalone
agent behind ``fastpr agent``.  The coordinator side of a repair is
:class:`repro.runtime.RepairDriver` on every transport; drive repairs
through :class:`repro.RepairSession`.
"""

from .launch import (
    COORDINATOR_ALIAS,
    PeerSpecError,
    allocate_ports,
    format_peer_spec,
    load_node_data,
    parse_peer_spec,
    run_agent_process,
    sharded_peer_spec,
    shm_network,
    shm_ring_name,
    tcp_network,
)
from .shm import ShmNetwork, ShmRing, shm_available
from .tcp import TcpNetwork
from .wire import (
    HEADER,
    MAGIC,
    MAX_META,
    MAX_PAYLOAD,
    WIRE_VERSION,
    WireError,
    decode_frame,
    encode_frame,
    encode_frame_parts,
)

__all__ = [
    "COORDINATOR_ALIAS",
    "HEADER",
    "MAGIC",
    "MAX_META",
    "MAX_PAYLOAD",
    "PeerSpecError",
    "ShmNetwork",
    "ShmRing",
    "TcpNetwork",
    "WIRE_VERSION",
    "WireError",
    "allocate_ports",
    "decode_frame",
    "encode_frame",
    "encode_frame_parts",
    "shm_available",
    "format_peer_spec",
    "load_node_data",
    "parse_peer_spec",
    "run_agent_process",
    "sharded_peer_spec",
    "shm_network",
    "shm_ring_name",
    "tcp_network",
]
