"""Repository benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

Run from the root of a checkout.  Generates the workload's inputs from the
seed, drives the system through ``repro.api`` (in-process) or a ``repro
serve`` subprocess, checks the answers, prints a human-readable table and,
as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the same workload with spans around layer entry points and reports the
per-layer metrics instead.  ``perfbench/pin.py`` re-records the pinned
input fingerprints in ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = Path.cwd()

WORKLOADS = ("social_stream", "sparse_stream", "batch_mine_identify", "serve_mixed")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and insist the program is there."""
    source = CHECKOUT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {source / 'repro'} is missing")
    sys.path[:0] = [str(HERE), str(source)]
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not from {source}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(outcome) -> dict:
    from common import median

    return {
        "setup_s": (median(outcome.setup_s), "s"),
        "op_p50_ms": (median(outcome.op_s) * 1e3, "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def generate(workload: str, seed: int, directory: Path):
    """The workload's inputs for *seed*, checked against the pinned fingerprint."""
    import inputs as generators

    chosen = generators.input_seed(workload, seed)
    generated = generators.GENERATORS[workload](chosen, directory)
    pinned = generators.pinned().get(f"{workload}/{chosen}", {})
    return generated, pinned


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from common import work_dir

    directory = work_dir(CHECKOUT, args.workload)
    try:
        return _run(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(args, directory: Path) -> int:
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    generated, pinned = generate(args.workload, args.seed, directory)
    probe = None
    if args.trace:
        from layers import Probe

        probe = Probe()
    try:
        outcome = _drive(args, generated, pinned, probe)
    finally:
        if probe is not None:
            probe.close()
    outcome.check(
        generated.fingerprint == pinned.get("inputs"),
        f"input fingerprint {generated.fingerprint} != pinned {pinned.get('inputs')}",
    )
    correct = outcome.mismatches == 0

    table = dict(end_to_end(outcome))
    table["coordinator_rss_mb"] = (outcome.coordinator_rss_mb, "MB")
    table.update(outcome.details)
    attempted = max(outcome.attempted, 1)
    table["error_rate"] = (outcome.failed / attempted, "ratio")
    table["failed_checks"] = (outcome.mismatches, "count")
    table["checks"] = (outcome.checks, "count")
    print(f"workload {args.workload} seed {args.seed} (inputs {generated.fingerprint})")
    for name, (value, unit) in table.items():
        print(f"  {name:<24} {value!s:>22} {unit}")
    if args.trace:
        # A layer the workload does not run reads 0.
        layers = dict(outcome.layers)
        layers["parallel.worker_rss_mb"] = outcome.peak_rss_mb - outcome.coordinator_rss_mb
        metrics = {
            entry["name"]: {"value": float(layers.get(entry["name"], 0.0)), "unit": entry["unit"]}
            for entry in declared["per_layer"]
        }
        for name, entry in metrics.items():
            print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    else:
        metrics = {
            entry["name"]: {"value": table[entry["name"]][0], "unit": entry["unit"]}
            for entry in declared["end_to_end"]
        }
    for note in outcome.notes:
        print(f"  ! {note}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _drive(args, generated, pinned, probe):
    from workloads import run_batch, run_stream

    if args.workload in ("social_stream", "sparse_stream"):
        return run_stream(generated, args.seconds, probe)
    if args.workload == "batch_mine_identify":
        return run_batch(generated, args.seconds, probe, expected=pinned.get("outputs"))
    from serve_load import run_serve

    return run_serve(generated, args.seconds, probe, CHECKOUT)


if __name__ == "__main__":
    sys.exit(main())
