"""Set-up probe: start, import kgpoint and prepare one workload up to its first solver call.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints "ready" when the workload is about to call the solver, then exits
without solving.  run.py times each probe from process start to that line,
which covers interpreter start, imports, config parsing and building the
initial data.
"""

import sys
from pathlib import Path


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[name](workdir, seed).until_solver()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
