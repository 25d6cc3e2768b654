"""Input determinism self-test for the benchmark.

    python3 perfbench/selftest.py

Each workload's set-up runs in fresh interpreters with different hash
seeds. The same seed must give the same input fingerprint; another seed
must change the sep and verify inputs and leave the fixed family and cli
inputs alone. Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import subprocess
import sys

import run

SEEDED = {"sep": True, "verify": True, "family": False, "cli": False}


def fingerprint(workload: str, seed: int, hash_seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, __file__, "--print", workload, str(seed)],
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return proc.stdout.strip()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--print"]:
        _, workloads, _ = run.load_program()
        print(workloads.SETUP[argv[1]](int(argv[2])).fingerprint)
        return 0
    failures = []
    for workload, seeded in SEEDED.items():
        first, again, other = (fingerprint(workload, 1, 0), fingerprint(workload, 1, 1),
                               fingerprint(workload, 2, 0))
        print(f"{workload}: seed 1 -> {first}, {again}; seed 2 -> {other}")
        if first != again:
            failures.append(f"{workload}: seed 1 gave two different inputs")
        if seeded and first == other:
            failures.append(f"{workload}: seeds 1 and 2 gave the same inputs")
        if not seeded and first != other:
            failures.append(f"{workload}: fixed inputs changed with the seed")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
