"""Write the recorded results the checks compare against.

    PYTHONPATH=src python3 perfbench/make_golden.py

``golden/regions.json`` holds the projected regions of the derive-n4 cases;
``golden/ascent.json`` holds the rates and traces of the first ``PASSES``
ascent-n3 passes for the default and held-out seeds.  They record the
package's output at the commit that introduced the benchmark.  Rewrite
them only in a change that alters the benchmark itself, never in one that
claims a speed-up.
"""

from __future__ import annotations

import json

import numpy as np

import nncpdf as nn
from run import DEFAULT_SEED, HELD_OUT_SEED
from workloads import GOLDEN, AscentN3, DeriveN4

PASSES = 8


def regions():
    out = {}
    for n, dests in DeriveN4.CASES:
        region = nn.derive_region(nn.random_network(np.random.default_rng(0), n, destinations=dests))
        rows = []
        for ineq in region.inequalities:
            ineq = ineq.normalized()
            coeffs = {**ineq.rates, **ineq.atoms}
            assert all(c.c1 == 0 for c in coeffs.values()), "region still depends on B"
            rows.append({
                "rates": {k: str(v.c0) for k, v in sorted(ineq.rates.items())},
                "atoms": {k: str(v.c0) for k, v in sorted(ineq.atoms.items())},
            })
        out[f"{n}:{','.join(map(str, sorted(dests)))}"] = {
            "variables": list(region.variables),
            "rows": rows,
            "atoms": {
                name: [sorted(str(v) for v in side) for side in (atom.left, atom.right, atom.cond)]
                for name, atom in sorted(region.atom_table.items())
            },
        }
    return out


def _one_row_per_line(doc):
    """JSON with one region row or atom definition per line."""
    lines = ["{"]
    for r, (key, region) in enumerate(doc.items()):
        lines.append(f' {json.dumps(key)}: {{"variables": {json.dumps(region["variables"])},')
        lines.append('  "rows": [')
        lines += [f"   {json.dumps(row)}," for row in region["rows"]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append('  ], "atoms": {')
        lines += [f"   {json.dumps(k)}: {json.dumps(v)}," for k, v in region["atoms"].items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("  }}" + ("," if r < len(doc) - 1 else ""))
    return "\n".join(lines + ["}"]) + "\n"


def ascent():
    out = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        runs = []
        for i in range(PASSES):
            r = AscentN3(seed, i, None)._ascent()
            runs.append({k: r[k] for k in ("nnc_rate", "small_trace", "full_rate", "full_trace")})
        out[str(seed)] = runs
    return out


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "regions.json").write_text(_one_row_per_line(regions()))
    (GOLDEN / "ascent.json").write_text(json.dumps(ascent(), indent=1) + "\n")
