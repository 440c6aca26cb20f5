"""On-disk chunk storage for one emulated DataNode.

Each node's agent owns a :class:`ChunkStore` — a directory of chunk
files (one per stripe the node participates in), with reads and writes
throttled by the node's emulated disk bandwidth.  This is the stand-in
for the HDFS DataNode block storage of the paper's testbed.

Packet I/O is positional (``pread``/``pwrite``) on a :class:`ChunkFile`
that a repair stream opens once and closes when the stream ends
(:meth:`ChunkStore.open_chunk`, :meth:`ChunkStore.open_staging`).  An
open/seek/close per packet drops and retakes the GIL several times per
packet, which, with tens of agent threads on a few cores, made file
opens cost milliseconds each; see DESIGN.md, "Double-buffered chunk
reads".
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from ..cluster.chunk import NodeId, StripeId
from ..cluster.cluster import StorageCluster
from .throttle import RateLimiter


class ChunkFile:
    """One open chunk (or staging) file, held for one stream's life.

    A stream — a sender's chunk read, a relay's read-ahead, an
    assembly's staging writer — opens its file once, does one
    positional ``pread``/``pwrite`` per packet through :class:`ChunkStore`,
    and closes it when the stream ends (``with``).  Nothing keeps a
    handle beyond its stream.
    """

    __slots__ = ("stripe_id", "fd")

    def __init__(self, stripe_id: StripeId, path: Path, flags: int):
        self.stripe_id = stripe_id
        self.fd = os.open(path, flags, 0o644)

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def __enter__(self) -> ChunkFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _borrow(handle: Optional[ChunkFile], stripe_id: StripeId, opener):
    """The stream's open ``handle``, or a handle opened for one call."""
    if handle is None:
        return opener(stripe_id)
    if handle.stripe_id != stripe_id:
        raise ValueError(
            f"handle of stripe {handle.stripe_id} used for stripe {stripe_id}"
        )
    return contextlib.nullcontext(handle)


def _check_read(stripe_id: StripeId, offset: int, read: int, length: int) -> None:
    if read != length:
        raise IOError(
            f"short read on stripe {stripe_id} at {offset}: {read} < {length}"
        )


class ChunkStore:
    """Packet-granular chunk storage with disk-bandwidth emulation.

    A chunk stream opens its file once — :meth:`open_chunk` to read,
    :meth:`open_staging` to assemble — and passes the handle to every
    :meth:`read_packet`, :meth:`read_packet_into` or :meth:`write_packet`
    call as ``handle=``; it closes the handle when the stream ends, and
    an assembly closes its staging handle before :meth:`promote`.
    Called without a handle, the packet methods open one for that call.
    Every packet is charged to the disk limiter either way.

    Args:
        root: directory for this node's chunk files.
        node_id: owner node (used in file naming and errors).
        disk: rate limiter emulating the node's disk; reads and writes
            share it, like a single spindle.
    """

    def __init__(self, root: Path, node_id: NodeId, disk: RateLimiter):
        self.root = Path(root)
        self.node_id = node_id
        self.disk = disk
        self.root.mkdir(parents=True, exist_ok=True)
        self._sizes: Dict[StripeId, int] = {}
        #: stripe -> times a staged chunk was promoted here; the crash
        #: recovery tests assert this never exceeds 1 per repair
        self.promotions: Dict[StripeId, int] = {}

    def _path(self, stripe_id: StripeId) -> Path:
        return self.root / f"stripe_{stripe_id}.chunk"

    def _staging_path(self, stripe_id: StripeId) -> Path:
        return self.root / f"stripe_{stripe_id}.chunk.part"

    # ------------------------------------------------------------------

    def put(self, stripe_id: StripeId, data: bytes, throttled: bool = False) -> None:
        """Store a whole chunk (fixture loading; unthrottled by default)."""
        if throttled:
            self.disk.throttle(len(data))
        self._path(stripe_id).write_bytes(data)
        self._sizes[stripe_id] = len(data)

    def has(self, stripe_id: StripeId) -> bool:
        return stripe_id in self._sizes or self._path(stripe_id).exists()

    def size(self, stripe_id: StripeId) -> int:
        size = self._sizes.get(stripe_id)
        if size is None:
            try:
                size = self._path(stripe_id).stat().st_size
            except FileNotFoundError:
                raise KeyError(
                    f"node {self.node_id} stores no chunk of stripe {stripe_id}"
                ) from None
            self._sizes[stripe_id] = size
        return size

    # -- per-stream handles ---------------------------------------------

    def open_chunk(self, stripe_id: StripeId) -> ChunkFile:
        """Open the stored chunk for reading, for one stream's life.

        The stream passes the handle to :meth:`read_packet` /
        :meth:`read_packet_into` as ``handle=`` and closes it (``with``)
        when it ends; every packet is then one ``pread`` on the same
        descriptor instead of an open/seek/read/close.
        """
        return ChunkFile(stripe_id, self._path(stripe_id), os.O_RDONLY)

    def open_staging(self, stripe_id: StripeId, total_size: int) -> ChunkFile:
        """Open (creating and pre-sizing) the ``.part`` staging file.

        One handle serves a whole assembly: :meth:`write_packet` with
        ``staged=True, handle=`` is then one ``pwrite`` per region.  The
        assembly closes it before :meth:`promote` renames the file.
        """
        return self._open_writable(
            stripe_id, self._staging_path(stripe_id), total_size
        )

    def _open_writable(
        self, stripe_id: StripeId, path: Path, total_size: int
    ) -> ChunkFile:
        handle = ChunkFile(stripe_id, path, os.O_RDWR | os.O_CREAT)
        try:
            # Pre-size the file so packets may land in any order.
            os.ftruncate(handle.fd, total_size)
        except BaseException:
            handle.close()
            raise
        return handle

    # -- packet I/O ------------------------------------------------------

    def read_packet(
        self,
        stripe_id: StripeId,
        offset: int,
        length: int,
        *,
        handle: Optional[ChunkFile] = None,
    ) -> bytes:
        """Read one packet, charged against the disk limiter.

        ``handle`` is the stream's :meth:`open_chunk`; without one the
        call opens and closes a handle of its own.
        """
        self.disk.throttle(length)
        with _borrow(handle, stripe_id, self.open_chunk) as chunk:
            data = os.pread(chunk.fd, length, offset)
        _check_read(stripe_id, offset, len(data), length)
        return data

    def read_packet_into(
        self,
        stripe_id: StripeId,
        offset: int,
        out,
        *,
        handle: Optional[ChunkFile] = None,
    ) -> int:
        """Read one packet into a caller-owned buffer (throttled).

        ``out`` is any writable buffer (memoryview, numpy array); the
        read fills it completely.  This is the allocation-free variant
        of :meth:`read_packet` used by double-buffered pipelines;
        ``handle`` is as for :meth:`read_packet`.
        """
        length = len(out)
        self.disk.throttle(length)
        with _borrow(handle, stripe_id, self.open_chunk) as chunk:
            read = os.preadv(chunk.fd, [out], offset)
        _check_read(stripe_id, offset, read, length)
        return read

    def write_packet(
        self,
        stripe_id: StripeId,
        offset: int,
        data: bytes,
        total_size: int,
        staged: bool = False,
        *,
        handle: Optional[ChunkFile] = None,
    ) -> None:
        """Write one packet of a chunk being assembled.

        With ``staged=True`` the packet lands in a ``.part`` staging
        file that only becomes the chunk on :meth:`promote` — so a
        crashed or retried assembly never leaves a torn chunk behind.
        ``handle`` is the assembly's :meth:`open_staging` (for a staged
        write); without one the call opens and closes a handle of its
        own.
        """
        self.disk.throttle(len(data))

        def opener(stripe: StripeId) -> ChunkFile:
            path = self._staging_path(stripe) if staged else self._path(stripe)
            return self._open_writable(stripe, path, total_size)

        with _borrow(handle, stripe_id, opener) as chunk:
            view = memoryview(data).cast("B")
            while view:
                written = os.pwrite(chunk.fd, view, offset)
                view = view[written:]
                offset += written
        if not staged:
            self._sizes[stripe_id] = total_size

    def promote(self, stripe_id: StripeId) -> None:
        """Atomically publish a fully assembled staged chunk.

        ``os.replace`` is atomic on POSIX, so readers see either the
        old chunk (if any) or the complete new one — never a torn mix.
        """
        staging = self._staging_path(stripe_id)
        if not staging.exists():
            raise FileNotFoundError(
                f"node {self.node_id}: no staged chunk for stripe {stripe_id}"
            )
        size = staging.stat().st_size
        os.replace(staging, self._path(stripe_id))
        self._sizes[stripe_id] = size
        self.promotions[stripe_id] = self.promotions.get(stripe_id, 0) + 1

    def discard_staged(self, stripe_id: StripeId) -> None:
        """Drop a partial staged assembly (aborted or superseded)."""
        try:
            os.remove(self._staging_path(stripe_id))
        except FileNotFoundError:
            pass

    def read(self, stripe_id: StripeId, throttled: bool = False) -> bytes:
        """Read a whole chunk (verification; unthrottled by default)."""
        if throttled:
            self.disk.throttle(self.size(stripe_id))
        return self._path(stripe_id).read_bytes()

    def delete(self, stripe_id: StripeId) -> None:
        try:
            os.remove(self._path(stripe_id))
        except FileNotFoundError:
            pass
        self._sizes.pop(stripe_id, None)

    def stripes(self) -> List[StripeId]:
        """Stripe ids with a chunk stored here."""
        found = set(self._sizes)
        for path in self.root.glob("stripe_*.chunk"):
            found.add(int(path.stem.split("_", 1)[1]))
        return sorted(found)


def node_store(
    cluster: StorageCluster,
    workdir: Path,
    node_id: NodeId,
    stop: Optional[threading.Event] = None,
    metrics=None,
) -> ChunkStore:
    """``node_id``'s store at ``workdir/node_<id>``, behind its emulated disk."""
    node = cluster.node(node_id)
    disk = RateLimiter(
        node.disk_bandwidth or cluster.disk_bandwidth,
        name=f"disk[{node_id}]",
        stop=stop,
        metrics=metrics,
        labels={"device": "disk", "node": node_id},
    )
    return ChunkStore(Path(workdir) / f"node_{node_id}", node_id, disk)
