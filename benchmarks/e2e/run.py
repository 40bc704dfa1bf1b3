"""Entry point of the benchmark, runnable from a bare checkout.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is the one-workload form the benchmark driver calls (``BENCHMARK.json``);
``python -m benchmarks.e2e run|check|compare`` is the same program with
its sub-commands for people.  Both come through :func:`bootstrap`, which
puts the checkout and ``src/`` on the import path and pins the string
hash seed: ``random_lav.random_scenario`` samples source instances while
iterating a set, so without the pin the server subprocess and the oracle
would generate different ``wire-*`` inputs from the same seed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable, deterministically."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks/e2e needs the repro package under {ROOT / 'src'}; "
            "this is not a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], env)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.e2e.cli import main

    raise SystemExit(main(["drive"] + sys.argv[1:]))
