"""Background scrubbing: find and repair silently corrupted chunks.

The paper's motivation cites latent sector errors as a major failure
mode ("latent sector errors are commonly found in modern disks" [4]).
Erasure-coded stores counter them with periodic *scrubbing*: read every
chunk, compare against its known checksum, and reconstruct any chunk
whose bytes no longer match.

:class:`Scrubber` walks an :class:`~repro.runtime.testbed.
EmulatedTestbed`'s stores against the checksums captured at load time,
reports mismatches, and repairs them in place by decoding from the
stripe's healthy chunks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ec.codec import DecodeError


@dataclass(frozen=True)
class CorruptChunk:
    """One detected checksum mismatch."""

    stripe_id: int
    chunk_index: int
    node_id: int


@dataclass
class ScrubReport:
    """Outcome of one scrubbing pass."""

    chunks_checked: int = 0
    corrupt: List[CorruptChunk] = field(default_factory=list)
    repaired: List[CorruptChunk] = field(default_factory=list)
    unrepairable: List[CorruptChunk] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


class Scrubber:
    """Checksum-verify (and optionally repair) every stored chunk.

    Args:
        testbed: supplies the stores, cluster metadata, the codec, and
            the load-time checksums that define "correct".
        throttled: charge scrub reads against the disks' rate limiters.
    """

    def __init__(self, testbed, throttled: bool = False):
        self.testbed = testbed
        self.throttled = throttled

    def scan(self) -> ScrubReport:
        """Verify every chunk of every stripe; no repairs."""
        report = ScrubReport()
        cluster = self.testbed.cluster
        for stripe in cluster.stripes():
            for index, node_id in enumerate(stripe.placement):
                expected = self.testbed.checksums.get(
                    (stripe.stripe_id, index)
                )
                if expected is None:
                    continue  # never loaded (e.g. synthetic stripe)
                store = self.testbed.stores[node_id]
                report.chunks_checked += 1
                if not store.has(stripe.stripe_id):
                    report.corrupt.append(
                        CorruptChunk(stripe.stripe_id, index, node_id)
                    )
                    continue
                data = store.read(stripe.stripe_id, throttled=self.throttled)
                if hashlib.sha256(data).hexdigest() != expected:
                    report.corrupt.append(
                        CorruptChunk(stripe.stripe_id, index, node_id)
                    )
        return report

    def scrub(self) -> ScrubReport:
        """Scan, then reconstruct every corrupt chunk in place."""
        report = self.scan()
        codec = self.testbed.codec
        cluster = self.testbed.cluster
        corrupt_keys = {(c.stripe_id, c.chunk_index) for c in report.corrupt}
        for corrupt in report.corrupt:
            stripe = cluster.stripe(corrupt.stripe_id)
            available = {}
            for index, node_id in enumerate(stripe.placement):
                if (corrupt.stripe_id, index) in corrupt_keys:
                    continue  # do not decode from corrupt sources
                store = self.testbed.stores[node_id]
                if store.has(corrupt.stripe_id):
                    available[index] = store.read(
                        corrupt.stripe_id, throttled=self.throttled
                    )
            try:
                rebuilt = codec.decode(available, [corrupt.chunk_index])
            except DecodeError:
                report.unrepairable.append(corrupt)
                continue
            self.testbed.stores[corrupt.node_id].put(
                corrupt.stripe_id,
                rebuilt[corrupt.chunk_index],
                throttled=self.throttled,
            )
            report.repaired.append(corrupt)
        return report
