"""Run one benchmark workload; see perfbench/README.md.

    python3 perfbench/run.py --workload scalability --seed 0 --trace 0
    python3 perfbench/run.py --regen-references [--write]

The last line of standard output is the JSON result. This wrapper only
finds the program: it exits non-zero, printing no result, when the
checkout holds no ``src/repro`` to measure.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), 'src')


def main():
    if not os.path.isfile(os.path.join(SRC, 'repro', '__init__.py')):
        print('perfbench: no program to measure (%s/repro is missing)'
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    return bench.main(sys.argv[1:])


if __name__ == '__main__':
    sys.exit(main())
