"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-eql --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository: the program is imported
from ``src/``.  ``--trace 0`` prints the end-to-end metrics of an untraced
run; ``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; failed checks are listed on standard error.  The run writes
only under ``.perfbench/`` in the working directory (temporary files,
worker snapshots, span dumps).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("paper-eql", "scale-local", "serve-ingest")
TEMP_DIR = os.path.join(".perfbench", "tmp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Re-execute with a fixed string-hash seed and a private temp dir.

    Set iteration order over strings follows ``PYTHONHASHSEED``; pinning it
    makes the traced counts repeat exactly.  ``TMPDIR`` keeps the worker
    pool's snapshot files and multiprocessing's sockets inside the working
    directory; it is relative because a socket path must stay short.
    """
    if os.environ.get("PYTHONHASHSEED") == "0" and os.environ.get("TMPDIR") == TEMP_DIR:
        return
    os.makedirs(TEMP_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=TEMP_DIR)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("run.py: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_environment()
    import tempfile

    tempfile.tempdir = TEMP_DIR  # gettempdir() would make it absolute
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import importlib

    module = importlib.import_module(args.workload.replace("-", "_"))
    problems: list = []
    result = module.run(args.seed, args.seconds, bool(args.trace), problems)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
