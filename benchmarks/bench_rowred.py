"""Benchmark the compiled row-reduction kernel against the pure-Python twin.

Random matrices over Q (via integer rows) and GF(p): dense ones of the given
sizes, and sparse ones shaped like the rows the corpus hands the kernel
(about 3% nonzero, 40-60 columns, and one wide 30 x 200 case).  The two
implementations must produce identical output, which is asserted before any
timing.  A time is the best over three rounds of the mean per call.

Usage: python benchmarks/bench_rowred.py [--sizes 40,80,120] [--seed 7]
"""

from __future__ import annotations

import argparse
import random
import timeit

from cikit import _rowred_py

try:
    from cikit import _rowred as compiled
except ImportError:
    compiled = None


def random_int_matrix(rng, m, n, lo=-20, hi=20, density=1.0):
    return [[rng.randrange(lo, hi + 1) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


def timed(fn, *args, repeats=3):
    timer = timeit.Timer(lambda: fn(*args))
    number, _ = timer.autorange()
    return min(timer.repeat(repeats, number)) / number


def bench_case(name, kernel_fn, args, lines):
    pure_fn = getattr(_rowred_py, kernel_fn)
    fast_fn = getattr(compiled, kernel_fn) if compiled else None
    if fast_fn is not None:
        assert pure_fn(*args) == fast_fn(*args), f"{name}: compiled and pure kernels disagree"
    t_pure = timed(pure_fn, *args)
    if fast_fn is None:
        lines.append(f"{name:28s} pure {t_pure * 1e3:9.2f} ms   (no compiled kernel)")
        return
    t_fast = timed(fast_fn, *args)
    speedup = t_pure / t_fast if t_fast else float("inf")
    lines.append(
        f"{name:28s} pure {t_pure * 1e3:9.2f} ms   compiled {t_fast * 1e3:9.2f} ms"
        f"   speedup {speedup:6.1f}x"
    )


def bench_matrix(label, ints, p, lines):
    """The four echelon kernels on one integer matrix and its image mod p;
    the independence cases take the first half of the rows as the span."""
    m, n = len(ints), len(ints[0])
    fp = [[v % p for v in row] for row in ints]
    h = m // 2
    for kernel_fn, args in (("rref_int", (ints,)), ("indep_int", (ints[:h], ints[h:])),
                            ("rref_fp", (fp, p)), ("indep_fp", (fp[:h], fp[h:], p))):
        bench_case(f"{label}{kernel_fn} {m}x{n}", kernel_fn, args, lines)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="40,80,120")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--prime", type=int, default=7)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)

    lines = []
    for n in sizes:
        bench_matrix("", random_int_matrix(rng, (2 * n) // 3, n), args.prime, lines)
    for m, n in ((40, 40), (50, 50), (60, 60), (30, 200)):
        bench_matrix("sparse ", random_int_matrix(rng, m, n, density=0.03), args.prime, lines)

    print(f"compiled kernel available: {compiled is not None}")
    print()
    print("\n".join(lines))


if __name__ == "__main__":
    main()
