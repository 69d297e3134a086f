"""Capture the golden stdout and exit code of every ``cli-corpus`` command.

    python3 perfbench/capture_golden.py

Each command runs once as a fresh ``python -m hyperpoly.cli`` from this
checkout's ``src/``; the results are written to ``perfbench/golden/cli.json``.
Run it only on a commit whose output is the reference: the benchmark counts
every later difference from these bytes as a failed item.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    workloads.write_tower(workdir)
    golden = {}
    for name in sorted(workloads.CORPUS):
        code, out = workloads.cold_command(name, SRC, workdir)
        golden[name] = {"argv": workloads.CORPUS[name], "exit": code,
                        "stdout": out.decode("utf-8")}
        print(f"{name}: exit {code}, {len(out)} bytes")
    os.makedirs(os.path.dirname(workloads.GOLDEN_PATH), exist_ok=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
