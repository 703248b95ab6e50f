"""Fold certificates from result files into bench/reference.json.

    python3 bench/record_reference.py

Reads every untraced result under .bench_cache/results/ and records, per
workload and seed, each certified node's predicted class, status, dual
lower bounds and primal margins, with the sha256 of the checkpoint they
were computed with. Later runs with the same seed fail a node whose
certificate got weaker (see ``workloads.check_reference``). Nodes already
recorded are kept; a workload recorded with another checkpoint is
recorded anew. train-rhu retrains its model, so it is not recorded.
"""

from __future__ import annotations

import glob
import json
import os

BENCH = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(BENCH), ".bench_cache", "results")
REFERENCE = os.path.join(BENCH, "reference.json")
RECORDED = ("certify-coraml", "certify-pga", "curve-sweep")


def rounded(values):
    """Ten significant digits: far finer than the comparison's slack."""
    return None if values is None else [float(f"{v:.10g}") for v in values]


def write(ref):
    """One line per workload and seed, so a re-recording diffs by seed."""
    blocks = []
    for name in sorted(ref):
        seeds = ref[name]["seeds"]
        rows = ",\n".join(
            f'   "{s}": {json.dumps(seeds[s], sort_keys=True)}' for s in sorted(seeds, key=int)
        )
        blocks.append(
            f' "{name}": {{\n  "checkpoint_sha256": "{ref[name]["checkpoint_sha256"]}",\n'
            f'  "seeds": {{\n{rows}\n  }}\n }}'
        )
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main():
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    added = 0
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["workload"] not in RECORDED or rec["failed"]:
            continue
        entry = ref.get(rec["workload"])
        if entry is None or entry["checkpoint_sha256"] != rec["checkpoint_sha256"]:
            entry = ref[rec["workload"]] = {"checkpoint_sha256": rec["checkpoint_sha256"], "seeds": {}}
        known = entry["seeds"].setdefault(str(rec["seed"]), {})
        for node, cert in rec["certificates"].items():
            if node not in known:
                known[node] = dict(cert, dual=rounded(cert["dual"]), primal=rounded(cert["primal"]))
                added += 1
    write(ref)
    print(f"recorded {added} new certificates in {REFERENCE}")


if __name__ == "__main__":
    main()
