"""Regenerate the stored modeled-result references of the benchmark.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Seed-free workloads store one record under ``"*"``; seeded ones store
seeds ``0 .. 63``.  Only rerun this when a change is meant to move
modeled results, and say so in the change.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seeds stored for the seeded workloads.
SEEDS = range(64)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import fidelity, harness, workloads
    from perfbench.layers import GcClock

    for name, wl in workloads.WORKLOADS.items():
        seeds = SEEDS if wl.seeded else [0]
        records = {}
        for seed in seeds:
            batch = harness.run_batch(wl, seed, GcClock())
            failed = [c for c, ok in wl.self_checks(seed, batch.outputs, batch.counters)
                      if not ok]
            if failed:
                print(f"{name} seed {seed}: self-checks failed: {failed}", file=sys.stderr)
                return 1
            records[str(seed) if wl.seeded else fidelity.ANY_SEED] = batch.records
            print(f"{name} seed {seed}: {len(batch.records)} values", flush=True)
        print(f"wrote {fidelity.save_reference(name, records)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
