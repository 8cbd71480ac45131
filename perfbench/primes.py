"""Seeded sampler of Coxeter-pair primes for the certify-coxeter workload.

Run as its own process (python3 perfbench/primes.py --seed S --count N)
so that nothing the selection computes, such as the reduction
contexts of the bundled pair, is cached in the timed process.  Prints one
JSON object: the kept primes in a seeded order, the number of candidates
tried, and how many kept primes fall in each decade of [10^6, 10^12].

The draw is log-uniform over [10^6, 10^12], stratified: the log range is
cut into `count` equal strata and kept prime k is drawn from stratum k, so
every seed gets the same spread of sizes and only the primes themselves
differ.  A candidate is a uniform point of its stratum moved up to the next
prime (by our own Miller-Rabin); it is kept only when the program
classifies the bundled pair's Frobenius classes as {3a, 6a}, otherwise the
stratum is drawn again.  The kept primes are returned in a seeded shuffle,
so consecutive calls mix sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from checks import COXETER, is_prime

LOW, HIGH = 10**6, 10**12
DECADES = tuple(range(6, 12))


def candidates(rng: random.Random, stratum: int, count: int):
    """Primes drawn log-uniformly from stratum `stratum` of `count`."""
    lo, hi = math.log(LOW), math.log(HIGH)
    width = (hi - lo) / count
    while True:
        p = int(math.exp(lo + width * (stratum + rng.random())))
        while not is_prime(p):
            p += 1
        if p <= HIGH:
            yield p


def decade(p: int) -> int:
    return min(len(str(p)) - 1, DECADES[-1])


def sample(seed: int, count: int) -> dict:
    from g2cert import bundled_polyfile, deflate_root_one, frobenius_class

    sextics = [deflate_root_one(bundled_polyfile(n).poly()) for n in ("frobenius2", "frobenius3")]
    rng = random.Random(f"coxeter-primes:{seed}")
    kept: list[int] = []
    tried = 0
    for stratum in range(count):
        for p in candidates(rng, stratum, count):
            tried += 1
            classes = set()
            for sextic in sextics:
                label = frobenius_class(sextic, p).weyl_class
                if label not in COXETER:
                    break
                classes.add(label)
            if classes == COXETER:
                kept.append(p)
                break
    rng.shuffle(kept)
    per_decade = {f"1e{d}": sum(1 for p in kept if decade(p) == d) for d in DECADES}
    return {"primes": kept, "candidates": tried, "per_decade": per_decade}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(sample(args.seed, args.count)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
