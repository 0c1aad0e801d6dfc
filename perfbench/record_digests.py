"""Record the input and output digests that ``run.py`` checks.

    python3 perfbench/record_digests.py

For every workload and seeds 0-31 this builds the default inputs, runs one
untimed pass, and stores both digests in ``perfbench/digests.json``.  A seed
is recorded only when every item of the pass checked out exactly.  Re-record
only for a change that is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


SEEDS = range(32)


def main() -> int:
    _, workloads = run.import_program()
    table = {}
    status = 0
    for name, wl in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workdir = run.OUT / f"inputs-{name}-{seed}-{os.getpid()}"
            try:
                wl, pool = run.setup(workloads, name, seed, wl.cycles, workdir)
                loop = run.Loop(wl, pool).run(1)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if loop.incorrect or loop.inconsistent:
                print(f"{name} seed {seed}: {loop.incorrect} wrong result(s); "
                      "not recorded", file=sys.stderr)
                status = 1
                continue
            inputs = run.digest(wl.input_key(it) for cyc in pool for it in cyc)
            table.setdefault(name, {})[str(seed)] = {
                "inputs": inputs, "outputs": loop.outputs_digest()}
            print(f"{name} seed {seed}: inputs={inputs} "
                  f"outputs={loop.outputs_digest()}", flush=True)
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True)
                                   + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
