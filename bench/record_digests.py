"""Record the SHA-256 of every exact report at the default seed.

Usage (from the root of a source checkout)::

    python3 bench/record_digests.py

Reports are byte-deterministic per command line, so ``run.py`` compares
each exact report against this table.  Re-record only when a change is
meant to alter report bytes, and say so in the change.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    os.chdir(run.ROOT)
    os.makedirs(os.path.join(run.OUT_DIR, "tmp"), exist_ok=True)
    runner = run.Runner(None, {}, time.monotonic() + 3600)
    digests = {}
    try:
        for name in workloads.WORKLOADS:
            invocations = workloads.battery(
                name, workloads.DEFAULT_SEED, os.path.join(run.OUT_DIR, "inputs")
            )
            for rec in runner.battery(invocations):
                if rec.failed:
                    print(f"FAILED {rec.inv.key}: {rec.error}", file=sys.stderr)
                    return 1
                if rec.inv.exact:
                    digests[rec.inv.key] = rec.digest
    finally:
        runner.close()
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
