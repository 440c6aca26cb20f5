"""Measure the gateway-mix rig's closed-loop capacity.

One client thread sends the gateway-mix operation mix back to back,
each operation as soon as the one before it ends, in the benchmark's
epochs, so a repair attempt starts with every block of the mix.  The
operations completed per second the client thread was sending are the
rig's sustained rate; ``workloads.GATEWAY_RATE`` is set to about half
of it.  Run from the root of a checkout::

    python3 perfbench/capacity.py --seeds 1 2 3 --epochs 6
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path
from statistics import median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from repro.ec import make_codec

    codec = make_codec(workloads.CODE)
    workdir = root / ".perfbench_work" / "capacity"
    rates = []
    try:
        for seed in args.seeds:
            outcome = workloads.Outcome()
            window = workloads._gateway_window(
                workloads.instance_seed(seed, 0, False), args.epochs, None,
                codec, workdir / str(seed), None, None, outcome,
            )
            ops = sum(len(samples) for samples in window.stats.latency.values())
            rates.append(ops / window.stats.busy_s)
            print(
                f"seed {seed}: {rates[-1]:.1f} op/s closed-loop, "
                f"{len(window.attempts)} repair attempts, "
                f"{outcome.tally.failed} of {outcome.tally.attempted} failed"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run uses it
        except OSError:
            pass
    print(f"median {median(rates):.1f} op/s; half: {median(rates) / 2:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
