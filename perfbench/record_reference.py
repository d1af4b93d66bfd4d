"""Record the reference answers of every op for the default seed.

    python3 perfbench/record_reference.py

Run from the repository root.  It rewrites ``perfbench/reference.json``,
which ``run.py`` compares answers against: every op for the default seed,
and ops whose input does not depend on the seed for any seed.  The planes
ops have no reference answer: their answers are fixed by q and checked in
the op.
"""

from __future__ import annotations

import json
import os

from run import HERE, import_library


def main() -> None:
    import_library()
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        if name != "planes":
            table[name] = {op.id: op.run() for op in workloads.build(name, workloads.DEFAULT_SEED)}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
