"""Per-layer timing for traced runs, measured from outside the program.

:class:`LayerProbe` replaces public functions of each layer with timed
wrappers while a traced run executes and puts the original objects
back afterwards.  Functions another module imported by name are
patched at that caller's binding (``repro.runtime.agent`` binds the GF
kernels, ``repro.net.tcp`` the wire codec), because patching the
defining module would not reach those calls.

The rest of the per-layer numbers come from the program's own
:class:`~repro.obs.MetricsRegistry` and trace, read by
:func:`registry_layers` and :func:`coordinator_layers`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple, Union

import repro.core.planner as planner
import repro.ec.reed_solomon as reed_solomon
import repro.net.tcp as tcp
import repro.runtime.agent as agent
from repro.core.matching import IncrementalStripeMatcher
from repro.core.reconstruction_sets import ReconstructionSetFinder
from repro.gateway.arbiter import TrafficArbiter, traffic_class
from repro.gateway.manifest import ManifestStore
from repro.obs.report import breakdown_from_trace
from repro.obs.tracing import TraceDocument, TraceError, duration_of
from repro.runtime.datanode import ChunkStore
from repro.runtime.transport import Network


_MISSING = object()


def _sized(index: int, name: str, length: bool = True):
    """Bytes of the argument at ``index`` (or keyword ``name``)."""

    def size(*args, **kwargs) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        if not length:
            return int(value)
        return getattr(value, "nbytes", None) or len(value)

    return size


class LayerProbe:
    """Busy seconds, calls and bytes per layer, from timed wrappers.

    :meth:`install_all` puts the wrappers in place; leaving the probe's
    ``with`` block restores the original objects even if the run raised.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        #: (owner, attribute, own attribute before or _MISSING)
        self.patched: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner,
        attr: str,
        key: Union[str, Callable[..., str]],
        size: Optional[Callable[..., int]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``key``.

        ``key`` may be a function of the call's arguments, and
        ``size(*args, **kwargs)`` gives the bytes one call processes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                name = key if isinstance(key, str) else key(*args, **kwargs)
                nbytes = size(*args, **kwargs) if size is not None else 0
                with self._lock:
                    self.seconds[name] += elapsed
                    self.calls[name] += 1
                    self.bytes[name] += nbytes

        self.patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self.patched:
            owner, attr, own = self.patched.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def install_all(self, codec_type=None) -> None:
        """Wrap the public functions of every layer the workloads reach."""
        self.wrap(ReconstructionSetFinder, "find_all", "core.algorithm1")
        self.wrap(IncrementalStripeMatcher, "try_add", "core.try_add")
        self.wrap(planner, "schedule_repair_rounds", "core.schedule")
        # GF kernels at the callers' bindings: the agents' per-packet
        # decode and the codec's batch matmul.
        self.wrap(agent, "gf_addmul_bytes", "ec.gf", _sized(2, "data"))
        self.wrap(agent, "gf_mul_bytes", "ec.gf", _sized(1, "data"))
        self.wrap(
            reed_solomon, "gf_matmul_bytes", "ec.gf", _sized(1, "shards")
        )
        if codec_type is not None:
            self.wrap(codec_type, "encode_batch", "ec.encode_batch")
            self.wrap(codec_type, "decode_batch", "ec.decode_batch")
        self.wrap(
            ChunkStore, "read_packet_into", "datanode.read", _sized(3, "out")
        )
        self.wrap(
            ChunkStore, "read_packet", "datanode.read",
            _sized(3, "length", length=False),
        )
        for name in ("write_packet", "promote", "put"):
            self.wrap(ChunkStore, name, "datanode.write")
        self.wrap(Network, "send", "transport.send")
        self.wrap(tcp, "encode_frame_parts", "wire.encode")
        self.wrap(tcp, "decode_body", "wire.decode")
        self.wrap(tcp.TcpNetwork, "send", "net.send")
        for name in ("save", "load"):
            self.wrap(ManifestStore, name, "gateway.manifest")
        self.wrap(
            TrafficArbiter, "admit",
            lambda arbiter, message, *rest, **kw: (
                f"arbiter.admit.{traffic_class(message)}"
            ),
        )

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def layers(self) -> Dict[str, float]:
        """The wrapper-derived per-layer metrics."""
        s, c, b = self.seconds, self.calls, self.bytes
        return {
            "core.algorithm1_s": s["core.algorithm1"],
            "core.try_add_calls": c["core.try_add"],
            "core.schedule_s": s["core.schedule"],
            "ec.gf_busy_s": s["ec.gf"],
            "ec.gf_bytes": b["ec.gf"],
            "ec.gf_calls": c["ec.gf"],
            "ec.encode_batch_s": s["ec.encode_batch"],
            "ec.decode_batch_s": s["ec.decode_batch"],
            "datanode.read_s": s["datanode.read"],
            "datanode.read_bytes": b["datanode.read"],
            "datanode.write_s": s["datanode.write"],
            "transport.send_calls": c["transport.send"],
            "transport.send_s": s["transport.send"],
            "wire.encode_s": s["wire.encode"],
            "wire.decode_s": s["wire.decode"],
            "net.send_s": s["net.send"],
            "gateway.manifest_s": s["gateway.manifest"],
            "arbiter.admit_calls.client": c["arbiter.admit.client"],
            "arbiter.admit_calls.repair": c["arbiter.admit.repair"],
            "arbiter.admit_wait_s.client": s["arbiter.admit.client"],
            "arbiter.admit_wait_s.repair": s["arbiter.admit.repair"],
        }


def _total(registry, name: str) -> float:
    """A counter's total, or a histogram's sum, over every label set."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    if hasattr(metric, "total"):
        return float(metric.total())
    return float(sum(sample["sum"] for sample in metric.samples()))


def registry_layers(registry) -> Dict[str, float]:
    """Per-layer numbers the program itself records in its registry."""
    return {
        "net.frames_sent": _total(registry, "net_frames_sent_total"),
        "net.bytes_sent": _total(registry, "net_bytes_sent_total"),
        "net.frames_rejected": _total(registry, "net_frames_rejected_total"),
        "net.frames_dropped": _total(registry, "net_frames_dropped_total"),
        "net.reconnects": _total(registry, "net_reconnects_total"),
        "agent.decode_s": _total(registry, "agent_decode_seconds"),
        "agent.staging_s": _total(registry, "agent_staging_seconds"),
        "agent.bytes_sent": _total(registry, "agent_bytes_sent_total"),
        "coord.retries": _total(registry, "repair_retries_total"),
        "coord.nacks": _total(registry, "repair_nacks_total"),
        "coord.replans": _total(registry, "repair_replans_total"),
        "throttle.wait_s": _total(registry, "ratelimiter_wait_seconds"),
        "throttle.bytes": _total(registry, "ratelimiter_bytes_total"),
        "gateway.degraded_reads": _total(
            registry, "gateway_degraded_reads_total"
        ),
    }


def coordinator_layers(tracer) -> Dict[str, float]:
    """Round times and the migration/reconstruction split of the trace."""
    document = tracer.to_dict()
    try:
        breakdown = breakdown_from_trace(document)
    except TraceError:
        breakdown = None
    # The breakdown folds every repair on this tracer into one set of
    # rounds keyed by index; round spans give each round's own time.
    durations = [
        duration_of(span) for span in TraceDocument(document).named("round")
    ]
    rounds = breakdown.rounds if breakdown is not None else []
    return {
        "coord.round_p50_s": median(durations) if durations else 0.0,
        "coord.round_max_s": max(durations, default=0.0),
        "coord.migration_s": sum(r.migration_seconds for r in rounds),
        "coord.reconstruction_s": sum(
            r.reconstruction_seconds for r in rounds
        ),
    }
