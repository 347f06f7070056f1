"""Serve one library request in a fresh interpreter.

Reads {"workload": name, "row": input} as JSON on stdin, runs the
workload's adapter on that single row and prints its outcome as JSON.
The benchmark's cold phase times this process from start to exit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main():
    request = json.load(sys.stdin)
    row = np.asarray(request["row"], dtype=float)
    outcomes, _ = workloads.ADAPTERS[request["workload"]]([row])
    print(json.dumps(workloads.jsonable(outcomes[0])))


if __name__ == "__main__":
    main()
