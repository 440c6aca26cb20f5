"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload repair-mem --seed 1 \
        --seconds 12 --trace 0

Standard output ends with one JSON object holding ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``; names and units are read from ``BENCHMARK.json``.
Every workload reports every end-to-end metric:

- ``setup_s``: median seconds to set up one rig (cluster, testbed,
  data load and, on gateway-mix, the PUT preload);
- ``op_p50_ms``: median latency of the workload's foreground
  operation: one repair execution on repair-mem and repair-tcp, one GET
  on gateway-mix;
- ``repair_mb_s``: verified bytes of the repair attempts that succeeded
  over their wall time (a failed attempt counts in ``failed``);
- ``peak_rss_mb``: peak resident set of the benchmark process.

``attempted`` counts plan validations, repair attempts, GETs, PUTs and
DELETEs; a refused, failed or wrong result counts in ``failed``, and a
wrong one also makes ``correct`` false.

The line before the result carries provenance, the workload's own
figures (``plan_s``, GET/PUT percentiles, ...), the
in-run GF and XOR ceilings and the sample count behind every
percentile and median.
The program is imported from ``src/`` of the checkout; without it the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def metric_units(root: Path, kind: str) -> dict:
    """Name -> unit of the ``kind`` metrics BENCHMARK.json defines."""
    document = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in document[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    ceilings = measure.gf_ceilings()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir
    )
    tally = outcome.tally
    if args.trace:
        units = metric_units(root, "per_layer")
        # a layer the workload does not reach reports 0
        values = dict.fromkeys(units, 0.0)
        values.update(outcome.layers, **ceilings)
        values["failed_frac"] = tally.failed_frac
    else:
        units = metric_units(root, "end_to_end")
        values = outcome.metrics
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": measure.provenance(str(root), args.seed),
        "figures": outcome.figures,
        "ceilings": ceilings,
        "samples": outcome.samples,
        "errors": tally.errors,
        "wrong": tally.wrong[:5],
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
