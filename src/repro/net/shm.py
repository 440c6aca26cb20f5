"""Shared-memory transport: same-host process-per-core repair.

:class:`ShmNetwork` is the third ``Transport`` backend: it moves the
same wire frames as :class:`~repro.net.tcp.TcpNetwork`, but through a
``multiprocessing.shared_memory`` ring buffer instead of a socket —
one inbound MPSC ring per process, written by every peer and drained
by a single reader thread.  Same-host repair layouts (one process per
core) skip the kernel socket path entirely: a send is one memcpy into
the ring, a receive is one memcpy out.

Topology model mirrors TCP: each process attaches its *local* node(s)
and registers every remote node as a peer (``node id -> ring name``).
:meth:`listen` creates this process's inbound ring and returns its
name; :meth:`add_peer` points a node id at the ring of the process
hosting it.  Peers attach lazily with backoff, so processes may start
in any order.  A node may be both local and a peer naming this
process's own ring ("loopback wiring") — the peer route wins and every
frame crosses shared memory, which is how the conformance suite
exercises the ring inside one process.

Ring layout (all little-endian)::

    [ head u64 | tail u64 | capacity u64 | frames... ]

``head``/``tail`` are monotonic byte cursors (write/read totals); each
frame is ``[length u32][frame bytes]`` with byte-granular wraparound.
Multiple writer *processes* serialize through an ``fcntl.flock`` on a
sidecar lockfile (plus a thread lock in-process, since flock is
per-open-file); the single reader needs no lock — ``head`` is
published after the frame bytes land, ``tail`` after they are copied
out.  A full ring blocks the sender (backpressure, like a full kernel
socket buffer) and drops the frame after ``connect_timeout`` seconds,
mirroring TCP's give-up-on-unreachable-peer behavior.

Frame validation matches the socket path: a frame failing header
checks counts ``net_frames_rejected_total`` and is skipped (ring
framing is length-prefixed, so the stream stays aligned); a
``DataPacket`` whose frame CRC validated is delivered with
``checksum=None`` so the runtime skips its redundant per-payload
crc32.  Bandwidth emulation and fault injection bind exactly as on
TCP: egress NIC on the sending side, ingress NIC at delivery, packet
drop/dup/corrupt/delay on the sender, crash black-holes on both.
"""

from __future__ import annotations

import os
import queue
import struct
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - stripped-down python
    shared_memory = None
    resource_tracker = None

from ..cluster.chunk import NodeId
from ..runtime.faults import FaultInjector
from ..runtime.messages import DataPacket
from ..runtime.throttle import sleep_until
from ..runtime.transport import Endpoint, Network
from dataclasses import replace

from .wire import HEADER, WireError, decode_body, encode_frame_parts, parse_header

#: ring header: head cursor, tail cursor, capacity (bytes each: u64)
_RING_HEADER = struct.Struct("<QQQ")
_LEN = struct.Struct("<I")

#: sender poll period while the ring is full (backpressure spin)
_FULL_POLL = 0.0002

#: reader poll period while the ring is empty
_EMPTY_POLL = 0.0005


def shm_available() -> bool:
    """True when this platform supports the shared-memory transport."""
    return shared_memory is not None and fcntl is not None


#: segment names created by *this* process; their tracker entries
#: belong to the creator's ``unlink`` and must not be untracked on a
#: same-process attach (loopback wiring), or the tracker complains
#: about a double unregister
_CREATED_HERE: Set[str] = set()


def _untrack(name: str) -> None:
    """Stop the resource tracker from reaping a segment we only attached.

    Python's ``SharedMemory`` registers every attach with the resource
    tracker (not just creates), so a peer process exiting would unlink
    rings it never owned.  Only the creator may unlink.
    """
    if resource_tracker is None:  # pragma: no cover
        return
    if name in _CREATED_HERE:
        return  # our own ring: the entry belongs to the creator handle
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


def _attach_published(name: str):
    """Attach a ring segment whose creator has published its header.

    The creator's segment is visible by name before it is sized and
    before its header carries the capacity.  An attach inside that
    window would cache a zero capacity for good, so an empty segment
    or a zero capacity raises :class:`FileNotFoundError`, like a ring
    that does not exist yet, and the caller retries.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except ValueError:  # mmap of a segment not yet sized
        raise FileNotFoundError(f"ring {name} is not published yet") from None
    _untrack(name)
    if (
        shm.size < _RING_HEADER.size
        or _RING_HEADER.unpack_from(shm.buf, 0)[2] == 0
    ):
        shm.close()
        raise FileNotFoundError(f"ring {name} is not published yet")
    return shm


class ShmRing:
    """One MPSC frame ring in a named shared-memory segment.

    Args:
        name: segment name (``listen`` derives it; peers attach by it).
        capacity: data-region bytes when creating; ignored on attach
            (the segment header is authoritative).
        create: create the segment (reader side) or attach (writers).
    """

    def __init__(self, name: str, capacity: int = 8 << 20, create: bool = False):
        if not shm_available():  # pragma: no cover - non-POSIX platform
            raise RuntimeError("shared-memory transport needs POSIX shm+flock")
        self.name = name
        self.created = create
        if create:
            self.shm = shared_memory.SharedMemory(
                name=name, create=True, size=_RING_HEADER.size + capacity
            )
            _CREATED_HERE.add(name)
            _RING_HEADER.pack_into(self.shm.buf, 0, 0, 0, capacity)
            self.capacity = capacity
        else:
            self.shm = _attach_published(name)
            self.capacity = _RING_HEADER.unpack_from(self.shm.buf, 0)[2]
        self._lockpath = os.path.join(
            tempfile.gettempdir(), f"fpr-shm-{name.lstrip('/')}.lock"
        )
        self._lockfd = os.open(self._lockpath, os.O_CREAT | os.O_RDWR, 0o600)
        self._lock = threading.Lock()

    # -- cursors -------------------------------------------------------

    def _head(self) -> int:
        return struct.unpack_from("<Q", self.shm.buf, 0)[0]

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self.shm.buf, 8)[0]

    def _set_head(self, value: int) -> None:
        struct.pack_into("<Q", self.shm.buf, 0, value)

    def _set_tail(self, value: int) -> None:
        struct.pack_into("<Q", self.shm.buf, 8, value)

    # -- byte copies with wraparound -----------------------------------

    def _put(self, cursor: int, data) -> int:
        view = memoryview(data)
        nbytes = len(view)
        base = _RING_HEADER.size
        pos = cursor % self.capacity
        first = min(nbytes, self.capacity - pos)
        self.shm.buf[base + pos : base + pos + first] = view[:first]
        if first < nbytes:
            self.shm.buf[base : base + nbytes - first] = view[first:]
        return cursor + nbytes

    def _get(self, cursor: int, nbytes: int) -> bytes:
        base = _RING_HEADER.size
        pos = cursor % self.capacity
        first = min(nbytes, self.capacity - pos)
        if first == nbytes:
            return bytes(self.shm.buf[base + pos : base + pos + nbytes])
        return bytes(self.shm.buf[base + pos : base + pos + first]) + bytes(
            self.shm.buf[base : base + nbytes - first]
        )

    # -- frame API -----------------------------------------------------

    def write(self, parts, timeout: float) -> bool:
        """Append one frame (an iovec of buffers); False on timeout.

        Blocks while the ring lacks space (receiver backpressure).
        Raises ``ValueError`` for a frame that can never fit.
        """
        total = sum(len(p) for p in parts)
        needed = _LEN.size + total
        if needed > self.capacity:
            raise ValueError(
                f"frame of {total} bytes exceeds ring capacity "
                f"{self.capacity}; raise ring_capacity"
            )
        deadline = time.monotonic() + timeout
        with self._lock:
            fcntl.flock(self._lockfd, fcntl.LOCK_EX)
            try:
                while self.capacity - (self._head() - self._tail()) < needed:
                    if time.monotonic() >= deadline:
                        return False
                    time.sleep(_FULL_POLL)
                cursor = self._put(self._head(), _LEN.pack(total))
                for part in parts:
                    cursor = self._put(cursor, part)
                # Publish after the bytes land: the reader never sees a
                # torn frame.
                self._set_head(cursor)
                return True
            finally:
                fcntl.flock(self._lockfd, fcntl.LOCK_UN)

    def read_frames(self, max_frames: int = 64) -> List[bytes]:
        """Pop up to ``max_frames`` complete frames (single consumer).

        ``tail`` is republished after each frame so blocked writers see
        space as soon as it exists.
        """
        frames: List[bytes] = []
        tail = self._tail()
        while len(frames) < max_frames and tail < self._head():
            (length,) = _LEN.unpack(self._get(tail, _LEN.size))
            frames.append(self._get(tail + _LEN.size, length))
            tail += _LEN.size + length
            self._set_tail(tail)
        return frames

    def close(self) -> None:
        try:
            os.close(self._lockfd)
        except OSError:  # pragma: no cover
            pass
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        if self.created:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            _CREATED_HERE.discard(self.name)
            try:
                os.unlink(self._lockpath)
            except OSError:  # pragma: no cover
                pass


class _ShmPeer:
    """One remote node: the name of its host process's inbound ring."""

    def __init__(self, node_id: NodeId, ring_name: str):
        self.node_id = node_id
        self.ring_name = ring_name
        self.ring: Optional[ShmRing] = None
        self.lock = threading.Lock()


class ShmNetwork:
    """Shared-memory transport with the in-memory ``Network`` interface.

    Args:
        faults: optional fault injector, consulted on every send (and,
            for crash black-holing, on every delivery).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; emits the
            shared ``net_*`` family.
        inbox_capacity: bound on local endpoints' inboxes (0 =
            unbounded); a full inbox stalls the reader thread, which
            fills the ring and blocks senders.
        ring_capacity: data bytes of this process's inbound ring.
        connect_timeout: seconds a send retries attaching a peer's ring
            (the peer process may not have created it yet) and waits
            out a full ring before the frame is dropped
            (``net_frames_dropped_total``).
    """

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        inbox_capacity: int = 0,
        ring_capacity: int = 8 << 20,
        connect_timeout: float = 30.0,
    ):
        self._inner = Network(
            faults=faults, metrics=metrics, inbox_capacity=inbox_capacity
        )
        self.metrics = metrics
        self.net = self._inner.net
        self.ring_capacity = ring_capacity
        self.connect_timeout = connect_timeout
        self._peers: Dict[NodeId, _ShmPeer] = {}
        self._detached_peers: Set[NodeId] = set()
        self._lock = threading.Lock()
        self._shm_bytes = 0
        self._ring: Optional[ShmRing] = None
        self._reader: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

    # -- Transport interface (delegated local topology) ----------------

    @property
    def arbiter(self):
        """QoS policy shared with the local fabric (see :class:`Network`)."""
        return self._inner.arbiter

    @arbiter.setter
    def arbiter(self, arbiter) -> None:
        self._inner.arbiter = arbiter

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._inner.faults

    @faults.setter
    def faults(self, injector: Optional[FaultInjector]) -> None:
        self._inner.faults = injector

    @property
    def bytes_transferred(self) -> int:
        """Throttled payload bytes moved (local + through rings)."""
        with self._lock:
            return self._inner.bytes_transferred + self._shm_bytes

    def attach(
        self,
        node_id: NodeId,
        bandwidth: Optional[float],
        stop: Optional[threading.Event] = None,
    ) -> Endpoint:
        """Register a node hosted by *this* process."""
        return self._inner.attach(node_id, bandwidth, stop=stop)

    def detach(self, node_id: NodeId) -> Optional[Endpoint]:
        """Remove a node from the topology (local endpoint, peer or both)."""
        endpoint: Optional[Endpoint] = None
        known = False
        if node_id in self._inner._endpoints:
            endpoint = self._inner.detach(node_id)
            known = True
        peer = self._peers.pop(node_id, None)
        if peer is not None:
            known = True
            self._detached_peers.add(node_id)
            if peer.ring is not None:
                peer.ring.close()
        if not known:
            raise KeyError(f"node {node_id} not attached")
        return endpoint

    def endpoint(self, node_id: NodeId) -> Endpoint:
        """The *local* endpoint of a node hosted by this process."""
        return self._inner.endpoint(node_id)

    def node_ids(self) -> List[NodeId]:
        """Every node this process can reach: local endpoints + peers."""
        return sorted(set(self._inner.node_ids()) | set(self._peers))

    def scale_bandwidth(self, node_id: NodeId, factor: float) -> None:
        """Degrade a *local* node's NIC rates (slow-NIC fault)."""
        if node_id not in self._inner._endpoints:
            return
        self._inner.scale_bandwidth(node_id, factor)

    # -- peer wiring ---------------------------------------------------

    def listen(self, name: Optional[str] = None) -> str:
        """Create this process's inbound ring; returns its name.

        The returned name is what remote processes pass to
        :meth:`add_peer` for every node hosted here.
        """
        if self._ring is not None:
            raise RuntimeError("already listening")
        if self._closed:
            raise RuntimeError("ShmNetwork is closed")
        if name is None:
            name = f"fpr-{os.getpid()}-{id(self) & 0xFFFFFF:06x}"
        self._ring = ShmRing(name, capacity=self.ring_capacity, create=True)
        self._reader = threading.Thread(
            target=self._reader_loop, name="shm-network-reader", daemon=True
        )
        self._reader.start()
        return name

    def add_peer(self, node_id: NodeId, ring_name: str) -> None:
        """Register a remote node reachable via ``ring_name``.

        Attachment is lazy: the ring is opened on the first frame and
        retried with backoff, so peers may be registered before the
        remote process has created its ring.
        """
        if node_id in self._peers:
            raise ValueError(f"peer {node_id} already registered")
        self._peers[node_id] = _ShmPeer(node_id, ring_name)
        self._detached_peers.discard(node_id)

    def peers(self) -> Dict[NodeId, str]:
        """Registered remote nodes and their ring names."""
        return {p.node_id: p.ring_name for p in self._peers.values()}

    def refresh_peer(self, node_id: NodeId) -> None:
        """Drop a cached ring attachment; the next send re-opens by name.

        Transient peer processes (one-shot gateway clients) unlink and
        re-create their inbound ring on every run.  A mapping cached
        from the previous incarnation still accepts writes — into dead
        memory — so frames vanish without an error.  Unknown peers are
        ignored.
        """
        peer = self._peers.get(node_id)
        if peer is None:
            return
        with peer.lock:
            if peer.ring is not None:
                peer.ring.close()
                peer.ring = None

    # -- send ----------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message) -> None:
        """Deliver a message; peers through rings, local nodes in memory.

        Same contract as :meth:`Network.send`: DataPackets pay for the
        sender's emulated NIC and exert backpressure; crashed, closed
        or detached destinations swallow traffic silently; unknown
        destinations raise ``KeyError``.
        """
        peer = self._peers.get(dst)
        if peer is None:
            if dst in self._detached_peers and dst not in self._inner._endpoints:
                return  # dead remote peer: drop silently
            self._inner.send(src, dst, message)
            return
        faults = self.faults
        if faults is not None:
            faults.tick(self)
        sender = self._inner.endpoint(src)
        if sender.closed:
            return
        if isinstance(message, DataPacket):
            if src == dst:
                raise ValueError("loopback data transfer is not modeled")
            copies = 1
            extra_delay = 0.0
            corrupt_payload = None
            if faults is not None:
                fate = faults.on_data_packet(src, dst, message)
                if not fate.deliver:
                    return
                copies = fate.copies
                extra_delay = fate.extra_delay
                corrupt_payload = fate.payload
            nbytes = len(message.payload)
            head, payload = encode_frame_parts(src, dst, message)
            if corrupt_payload is not None:
                # In-flight corruption: frame keeps the original CRC,
                # so the receiver's frame CRC rejects it (same model
                # as the TCP path).
                payload = corrupt_payload
            arbiter = self.arbiter
            for _ in range(copies):
                if arbiter is not None:
                    arbiter.admit(message, nbytes, stop=sender.nic_out.stop)
                deadline = sender.nic_out.reserve(nbytes)
                sleep_until(deadline + extra_delay, stop=sender.nic_out.stop)
                with self._lock:
                    self._shm_bytes += nbytes
                self.net.bytes_sent.inc(nbytes, node=src)
                self._enqueue(peer, src, (head, payload))
            return
        if faults is not None and not faults.filter_message(src, dst):
            return  # a crashed node neither sends nor receives
        self._enqueue(peer, src, encode_frame_parts(src, dst, message))

    def _enqueue(
        self, peer: _ShmPeer, src: NodeId, parts: Tuple[bytes, bytes]
    ) -> None:
        """Write one frame into a peer's ring; blocks while it is full."""
        if self._closed:
            self.net.frames_dropped.inc(node=peer.node_id)
            return
        ring = self._peer_ring(peer)
        if ring is None:
            self.net.frames_dropped.inc(node=peer.node_id)
            return
        try:
            delivered = ring.write(parts, timeout=self.connect_timeout)
        except ValueError:
            raise
        except OSError:
            delivered = False  # ring torn down underneath us
        if delivered:
            self.net.frames_sent.inc(node=src)
        else:
            self.net.frames_dropped.inc(node=peer.node_id)

    def _peer_ring(self, peer: _ShmPeer) -> Optional[ShmRing]:
        """Attach a peer's ring lazily, with backoff (like a TCP dial).

        A ring that is missing or not yet published (see
        :func:`_attach_published`) is retried until ``connect_timeout``.
        """
        ring = peer.ring
        if ring is not None:
            return ring
        with peer.lock:
            if peer.ring is not None:
                return peer.ring
            deadline = time.monotonic() + self.connect_timeout
            delay = 0.005
            while True:
                try:
                    peer.ring = ShmRing(peer.ring_name)
                    self.net.connections.inc(direction="out")
                    return peer.ring
                except FileNotFoundError:
                    if self._closed or time.monotonic() + delay >= deadline:
                        return None
                    time.sleep(delay)
                    delay = min(delay * 2, 0.2)

    # -- receive -------------------------------------------------------

    def _reader_loop(self) -> None:
        ring = self._ring
        while not self._stop.is_set():
            frames = ring.read_frames()
            if not frames:
                self._stop.wait(_EMPTY_POLL)
                continue
            for frame in frames:
                self._handle_frame(frame)

    def _handle_frame(self, frame: bytes) -> None:
        if len(frame) < HEADER.size:
            self.net.frames_rejected.inc(reason="header")
            return
        try:
            code, _epoch, meta_len, payload_len, crc = parse_header(
                frame[: HEADER.size]
            )
        except WireError:
            # Ring framing is length-prefixed, so unlike a TCP byte
            # stream a bad frame cannot desynchronize the rest: skip it.
            self.net.frames_rejected.inc(reason="header")
            return
        if len(frame) != HEADER.size + meta_len + payload_len:
            self.net.frames_rejected.inc(reason="truncated")
            return
        view = memoryview(frame)
        try:
            src, dst, message = decode_body(
                code,
                crc,
                view[HEADER.size : HEADER.size + meta_len],
                view[HEADER.size + meta_len :],
            )
        except WireError:
            self.net.frames_rejected.inc(reason="body")
            return
        if isinstance(message, DataPacket) and message.checksum is not None:
            # Frame CRC just validated the payload bytes: skip the
            # runtime's redundant per-payload crc32 (satellite of the
            # same contract the TCP receive path honors).
            message = replace(message, checksum=None)
        self._deliver(src, dst, message)

    def _deliver(self, src: NodeId, dst: NodeId, message) -> None:
        faults = self.faults
        if faults is not None and not faults.filter_message(src, dst):
            return  # locally known crashed node: black hole
        try:
            endpoint = self._inner.endpoint(dst)
        except KeyError:
            self.net.frames_dropped.inc(node=dst)
            return  # misrouted or detached-here destination
        if endpoint.closed:
            return
        if isinstance(message, DataPacket):
            nbytes = len(message.payload)
            deadline = endpoint.nic_in.reserve(nbytes)
            sleep_until(deadline, stop=endpoint.nic_in.stop)
            self.net.bytes_received.inc(nbytes, node=dst)
        while True:
            try:
                endpoint.inbox.put_nowait(message)
                break
            except queue.Full:
                # Bounded inbox: stall the reader; the ring then fills
                # and blocks remote senders (end-to-end backpressure).
                if self._stop.wait(0.005):
                    return
        self.net.frames_received.inc(node=dst)
        self.net.inbox_depth.set(endpoint.inbox.qsize(), node=dst)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Tear the ring layer down (idempotent).

        Local endpoints stay attached: a closed ShmNetwork degrades to
        the in-memory fabric, like a closed TcpNetwork.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._reader is not None:
            self._reader.join(timeout=10)
            self._reader = None
        for peer in self._peers.values():
            if peer.ring is not None:
                peer.ring.close()
                peer.ring = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
