"""On-disk chunk storage for one emulated DataNode.

Each node's agent owns a :class:`ChunkStore` — a directory of chunk
files (one per stripe the node participates in), with reads and writes
throttled by the node's emulated disk bandwidth.  This is the stand-in
for the HDFS DataNode block storage of the paper's testbed.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from ..cluster.chunk import NodeId, StripeId
from ..cluster.cluster import StorageCluster
from .throttle import RateLimiter


class ChunkStore:
    """Packet-granular chunk storage with disk-bandwidth emulation.

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

    def read_packet(self, stripe_id: StripeId, offset: int, length: int) -> bytes:
        """Read one packet, charged against the disk limiter."""
        self.disk.throttle(length)
        with open(self._path(stripe_id), "rb") as f:
            f.seek(offset)
            data = f.read(length)
        if len(data) != length:
            raise IOError(
                f"short read on stripe {stripe_id} at {offset}: "
                f"{len(data)} < {length}"
            )
        return data

    def read_packet_into(self, stripe_id: StripeId, offset: int, out) -> int:
        """Read one packet into a caller-owned buffer (throttled).

        ``out`` is any writable buffer (memoryview, numpy array); the
        read fills it completely.  This is the allocation-free variant
        of :meth:`read_packet` used by double-buffered pipelines.
        """
        length = len(out)
        self.disk.throttle(length)
        with open(self._path(stripe_id), "rb") as f:
            f.seek(offset)
            read = f.readinto(out)
        if read != length:
            raise IOError(
                f"short read on stripe {stripe_id} at {offset}: "
                f"{read} < {length}"
            )
        return read

    def write_packet(
        self,
        stripe_id: StripeId,
        offset: int,
        data: bytes,
        total_size: int,
        staged: bool = False,
    ) -> None:
        """Write one packet of a chunk being assembled.

        With ``staged=True`` the packet lands in a ``.part`` staging
        file that only becomes the chunk on :meth:`promote` — so a
        crashed or retried assembly never leaves a torn chunk behind.
        """
        self.disk.throttle(len(data))
        path = self._staging_path(stripe_id) if staged else self._path(stripe_id)
        if not path.exists():
            # Pre-size the file so packets may land in any order.
            with open(path, "wb") as f:
                f.truncate(total_size)
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(data)
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
