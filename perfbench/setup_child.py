"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_child.py ROOT MANIFEST

Imports `daekit.cli` from ROOT/src, then loads every problem the manifest
names (file paths through `load_problem`, bundled names through
`load_builtin`).  The calibration kernel (see calibrate.py) runs after the
import and after the loads; "kernel_s" is the mean of the two.  Prints
{"import_s": ..., "load_s": ..., "kernel_s": ...} as one JSON line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root = Path(sys.argv[1])
    manifest = json.loads(Path(sys.argv[2]).read_text())
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import daekit.cli  # noqa: F401
    t1 = time.perf_counter()
    import calibrate
    import chain_field
    import workloads

    kernel_s = calibrate.kernel_seconds()
    if manifest["chain_field"]:
        chain_field.register()
    t2 = time.perf_counter()
    for spec in manifest["loads"]:
        workloads.load(spec)
    t3 = time.perf_counter()
    kernel_s = 0.5 * (kernel_s + calibrate.kernel_seconds())
    print(json.dumps({"import_s": t1 - t0, "load_s": t3 - t2,
                      "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
