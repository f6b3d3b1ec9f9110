"""Run one benchmark workload, or all of them, against the voxsynth sources
of this checkout.

    python3 perfbench/run.py --workload gen_pool --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 45

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it is a
record of the machine, the probes, the item timings and any failed check.
`--all` runs every workload untraced and traced, one run after another, and
prints every end-to-end metric with the tracing overhead. See README.md here.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    # the package under test comes from this checkout; the harness is a package beside it
    sys.path[0:1] = [str(root / "src"), str(root)]
    from perfbench.harness import main

    sys.exit(main())
