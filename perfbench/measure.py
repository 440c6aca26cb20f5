"""Shared measurement helpers: percentiles, ceilings, provenance, result.

Everything here is independent of the program under test except
:func:`gf_ceilings`, which times the GF(2^8) kernel the repair path
uses on a buffer generated in-process.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ec.galois import gf_addmul_bytes


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    if not samples:
        raise ValueError("percentile of an empty sample list")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def tail_level(samples: Sequence[float], wanted: float) -> float:
    """``wanted``, or the highest whole percentile with ten samples beyond.

    A percentile with fewer than ten samples beyond it is one slow
    sample, not a tail, so a short run reports a lower one.
    """
    for level in (wanted, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5):
        if level <= wanted and len(samples) * (1.0 - level) >= 10:
            return level
    return 0.5


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gf_ceilings(nbytes: int = 1 << 22, repeats: int = 5) -> Dict[str, float]:
    """In-run GB/s of the GF multiply-accumulate kernel and of plain XOR.

    Both run over the same buffers, so a later change can report
    ``repair_mb_s`` divided by the slower ceiling measured in the same
    process instead of comparing absolute numbers across machines.
    """
    rng = np.random.default_rng(12345)
    data = rng.integers(0, 256, nbytes, dtype=np.uint8)
    acc = np.zeros(nbytes, dtype=np.uint8)

    def best(fn) -> float:
        fn()  # warm caches and the kernel's scratch buffer
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return nbytes / median(times) / 1e9

    return {
        "ec.gf_gb_s": best(lambda: gf_addmul_bytes(acc, 0x53, data)),
        "ec.xor_gb_s": best(lambda: np.bitwise_xor(acc, data, out=acc)),
    }


def git_commit(root: str) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree.

    The search for a repository stops at ``root``, so a checkout that is
    not itself a work tree never reports an enclosing one.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Tally:
    """Attempted/failed operation counts and the correctness verdict.

    A failed operation is counted, never retried out of sight and never
    allowed to abort the run.  ``wrong`` records outputs that came back
    but were not the right bytes or a valid plan; those also clear
    :attr:`correct`.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.errors: Dict[str, int] = {}
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, kind: str, wrong: Optional[str] = None) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.errors[kind] = self.errors.get(kind, 0) + 1
            if wrong is not None:
                self.wrong.append(wrong)

    @property
    def correct(self) -> bool:
        return not self.wrong

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
