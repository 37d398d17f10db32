"""Regenerate ``bench/zp_counts.json``, the recorded |Z_p| of the zeroset-window
workload, by streaming ``canalg.zeroset.enumerate_Zp`` once per (type, level).

    python3 bench/zp_counts.py

The counts are a copy of the program's own enumeration: no independent
enumerator of Z_p exists yet.  They are keyed by the sorted arm lengths; the
traced run checks them against the seed's arm order, so a count that moved
with the order of the arms would show there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from canalg.forms import CanonicalType  # noqa: E402
from canalg.zeroset import enumerate_Zp  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    counts: dict[str, dict[str, int]] = {}
    for m, p in sorted(set(workloads.ZEROSET_PLAN + workloads.ZEROSET_TINY)):
        n = sum(1 for _ in enumerate_Zp(CanonicalType(m), p))
        counts.setdefault(",".join(map(str, m)), {})[str(p)] = n
        print(f"{m} p={p}: {n}")
    (HERE / "zp_counts.json").write_text(json.dumps(counts, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
