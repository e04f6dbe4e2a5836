"""Record the outputs the benchmark checks against (expected.json).

    python3 benchmarks/record.py

Runs one pass of each workload for input seeds 0 .. RECORDED_SEEDS-1 with the
code in this checkout and stores what `observe` returns. Re-record only when
a change is meant to alter results, and say so: the checks then hold later
changes to the new values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

# run.py maps --seed s to recorded input set s mod this count
RECORDED_SEEDS = 16


def main() -> int:
    dg = run.import_digrate()
    recorded = {}
    for name, work in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in range(RECORDED_SEEDS):
            ctx = work.setup(dg, seed, run.OUT / "record" / name)
            recorded[name][seed] = work.observe(ctx, work.run(ctx, run.no_span))
            print(f"{name} seed {seed} recorded", flush=True)
    run.EXPECTED.write_text(format_expected(recorded))
    return 0


def format_expected(recorded: dict) -> str:
    """JSON with one line per (workload, seed), which keeps the file diffable."""
    blocks = []
    for name in sorted(recorded):
        entries = [f"   {json.dumps(str(seed))}: {json.dumps(obs, sort_keys=True)}"
                   for seed, obs in sorted(recorded[name].items(),
                                           key=lambda kv: int(kv[0]))]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n  }")
    return (f'{{\n "recorded_seeds": {RECORDED_SEEDS},\n "workloads": {{\n'
            + ",\n".join(blocks) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
