"""Regenerate every workload's inputs from a seed and print their digests.

    python3 perfbench/digest.py --seed N

One line per workload: a SHA-256 over the canonical JSON of its inputs.  A
changed digest for an unchanged seed means the inputs changed, so timings
taken before and after are not comparable.  The selftest workload's configs
come from the package's own ``selftest.random_config``; its line
fingerprints that generator by the configs it draws, back to back, from
``random.Random(s)`` for each command seed ``s`` (the first of them is
exactly the first config that command checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

import run
import workloads


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def selftest_fingerprint(modules, seed) -> list[str]:
    selftest = modules["selftest"]
    out = []
    for s in workloads.selftest_inputs(seed):
        rng = random.Random(s)
        for _ in range(workloads.SELFTEST_COUNT):
            cfg, local = selftest.random_config(rng)
            out.append(selftest.describe_config(cfg, local))
    return out


def digests(seed, modules) -> dict[str, str]:
    return {
        "oracle-ladder": _sha(workloads.ladder_inputs(seed)),
        "selftest": _sha([workloads.selftest_inputs(seed), selftest_fingerprint(modules, seed)]),
        "kummer": _sha(workloads.kummer_inputs(seed)),
        "formula-scale": _sha(workloads.formula_inputs(seed)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        modules = run.load_package()
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    for name, digest in digests(args.seed, modules).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
