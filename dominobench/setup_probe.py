"""Time one cold set-up: import the program and generate a workload's inputs.

Usage: python3 dominobench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  run.py starts this several times in fresh
interpreters, so the import cost is measured cold each time.
"""

from time import perf_counter

_t0 = perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workloads.load_program()
    workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
    print(perf_counter() - _t0)


if __name__ == "__main__":
    main()
