"""Record the fingerprints every run checks: ``python3 perfbench/pin.py``.

Run from the root of a checkout.  For each workload and each of the
``INPUT_SEEDS`` input sets it records the fingerprint of the generated
inputs and, for ``batch_mine_identify``, of the mined Σ and identified set
one mine→identify job produces.  Re-pin only when a change to the program
is meant to move these, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

from common import work_dir  # noqa: E402
import inputs  # noqa: E402
from workloads import job_fingerprint, mine_then_identify  # noqa: E402


def main() -> int:
    directory = work_dir(Path.cwd(), "pin")
    pinned = {}
    try:
        for workload, generate in inputs.GENERATORS.items():
            for seed in sorted({inputs.input_seed(workload, s) for s in range(inputs.INPUT_SEEDS)}):
                generated = generate(seed, directory)
                entry = {"inputs": generated.fingerprint}
                if workload == "batch_mine_identify":
                    from repro.graph.io import load_graph_json

                    graph = load_graph_json(generated.graph_path)
                    mined, result, _walls = mine_then_identify(graph, generated)
                    entry["outputs"] = job_fingerprint(mined, result)
                pinned[f"{workload}/{seed}"] = entry
                print(workload, seed, entry, flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    inputs.FINGERPRINTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
