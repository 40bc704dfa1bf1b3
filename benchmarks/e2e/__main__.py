"""``python -m benchmarks.e2e run|check|compare`` (see ``README.md``)."""

import sys

from benchmarks.e2e.run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from benchmarks.e2e.cli import main

    raise SystemExit(main(sys.argv[1:]))
