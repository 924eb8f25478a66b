"""Recorded reference digests, and the script that records them.

``references.json`` maps workload -> seed -> figure id -> comparable
digest of a serial run of that workload's request on that seed. A run on
a recorded seed checks every figure request against it; on any other seed
the serial workloads check every pass against their first pass, and
fleet-store always checks against a serial run of the same round.

Re-record after a change that is meant to change results::

    python3 perfbench/references.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

PATH = pathlib.Path(__file__).resolve().with_name("references.json")

#: Workloads whose request is fixed per seed, so a digest can be recorded.
RECORDED = ("paper", "grid-sweep")


def load_references(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded digests of ``workload`` on ``seed`` (None if unrecorded)."""
    if not PATH.is_file():
        return None
    table = json.loads(PATH.read_text())
    return table.get(workload, {}).get(str(seed))


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="record reference digests")
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", choices=RECORDED, action="append")
    args = parser.parse_args(argv)
    root = PATH.parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.workloads import WORKLOADS

    table = json.loads(PATH.read_text()) if PATH.is_file() else {}
    for name in args.workload or RECORDED:
        for seed in args.seeds:
            digests = WORKLOADS[name](seed).reference_digests()
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} figures", file=sys.stderr)
            temp = PATH.with_suffix(".json.tmp")
            temp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            temp.replace(PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
