"""Pin result digests from finished runs: ``pin.py DETAIL.json [DETAIL.json ...]``.

Each argument is a detail file that ``run.py`` wrote under ``.perfbench_out/``.
Its per-case SHA-256 payload digests are stored in ``digests.json`` under the
run's seed and workload; later runs at that seed count the cases whose digest
differs as ``verify.payload_mismatch``.  Re-pin only for a deliberate change
of the sampling stream, and say so where the change is recorded.
"""

import json
import os
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def main(paths) -> int:
    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    for path in paths:
        with open(path) as fh:
            detail = json.load(fh)
        if detail["failures"]:
            print(f"{path}: run had failures; not pinned", file=sys.stderr)
            return 1
        env = detail["env"]
        pinned.setdefault(str(env["seed"]), {})[env["workload"]] = detail["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
