"""Set-up time of a benchmark run, measured in a fresh interpreter.

Imports ``flipswitch`` and ``flipswitch.cli`` from the checkout's ``src/``,
generates the workload's inputs into a work directory and prints the
seconds this took.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_cli():
    """``flipswitch.cli`` imported from the checkout, or None when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import flipswitch.cli
    except ImportError:
        return None
    if not Path(flipswitch.cli.__file__).resolve().is_relative_to(SRC):
        return None
    return flipswitch.cli


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    if load_cli() is None:
        print(f"flipswitch is not importable from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workloads.write_inputs(workloads.generate(workload, seed), workdir)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
