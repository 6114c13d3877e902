"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only list of workloads and
metrics; this module loads it.  It imports nothing from the program, so it
loads in a directory without the sources.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")

with open(MANIFEST) as _handle:
    DOCUMENT = json.load(_handle)

RUN_SECONDS: int = DOCUMENT["run_seconds"]
#: name -> why the workload exists (README.md has the rest).
WORKLOADS: Dict[str, str] = {w["name"]: w["why"] for w in DOCUMENT["workloads"]}
#: End-to-end metrics: (name, unit, better, bound).
END_TO_END: List[Tuple[str, str, str, float]] = [
    (m["name"], m["unit"], m["better"], m["bound"]) for m in DOCUMENT["end_to_end"]
]
#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    (m["name"], m["unit"], m["better"]) for m in DOCUMENT["per_layer"]
]
UNITS: Dict[str, str] = {
    m["name"]: m["unit"] for m in DOCUMENT["end_to_end"] + DOCUMENT["per_layer"]
}
