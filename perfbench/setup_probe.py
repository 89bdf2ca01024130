"""Time one workload's set-up in a fresh process: ``setup_probe.py ROOT WORKLOAD SEED``.

Prints the seconds taken to import wfsim, build the workload's inputs and,
for the in-process workloads, run one warm-up operation.
"""

import time

_started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    workloads.use_source(root)
    workloads.WORKLOADS[name](root, seed, root).prepare()
    print(repr(time.perf_counter() - _started))


if __name__ == "__main__":
    main()
