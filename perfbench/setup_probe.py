"""Set-up time of one CLI invocation, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR ARG...

Times importing ecswerner.cli, parsing ARG... and, for a sweep command,
building its configuration, then prints the seconds taken.
"""

import sys
import time

T0 = time.perf_counter()


def main():
    sys.path.insert(0, sys.argv[1])
    from ecswerner import cli

    args = cli.build_parser().parse_args(sys.argv[2:])
    if args.command != "verify":
        cli.build_config(args)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
