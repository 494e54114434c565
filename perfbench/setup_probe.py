"""Set-up probe: a fresh interpreter imports quotlat and builds a workload's first round.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads


def main(workload: str, seed: int) -> None:
    import quotlat  # noqa: F401

    next(workloads.rounds(workload, seed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
