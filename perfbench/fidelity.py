"""Modeled-result records and their bit-for-bit comparison.

A record flattens everything one batch modeled into ``name -> value``
leaves: each point's outputs plus, per session, the final simulated time
and every counter.  The engine's ``events`` count is kept out of the
stored-reference comparison (event fusion may change it without changing
a modeled result) but stays in the traced-versus-untraced comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: reference key of a workload whose modeled outputs do not depend on the seed
ANY_SEED = "*"


def session_record(label: str, sess, outputs: Dict[str, object]) -> Dict[str, object]:
    rec: Dict[str, object] = {f"{label}/{k}": v for k, v in outputs.items()}
    rec[f"{label}/sim_time"] = sess.now
    for name, count in sess.counters.items():
        rec[f"{label}/counters/{name}"] = count
    return rec


def same(a, b) -> bool:
    """Bit-for-bit equality (type included: 1 and 1.0 differ, NaN equals NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def mismatches(expected: Dict[str, object], actual: Dict[str, object]):
    """Names whose values differ, including names present on one side only."""
    return sorted(k for k in expected.keys() | actual.keys()
                  if k not in expected or k not in actual
                  or not same(expected[k], actual[k]))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The stored record for ``seed`` (or for any seed), or ``None``."""
    path = reference_path(workload)
    if not path.exists():
        return None
    seeds = json.loads(path.read_text())["seeds"]
    return seeds.get(str(seed), seeds.get(ANY_SEED))


def save_reference(workload: str, records: Dict[str, Dict[str, object]]) -> Path:
    """Write ``{seed key: record}``; one line per seed keeps diffs small."""
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
        for key, rec in sorted(records.items(), key=lambda kv: _seed_order(kv[0]))
    )
    path.write_text(f'{{"workload": {json.dumps(workload)}, "seeds": {{\n{lines}\n}}}}\n')
    return path


def _seed_order(key: str):
    return (0, int(key)) if key.lstrip("-").isdigit() else (1, 0)
