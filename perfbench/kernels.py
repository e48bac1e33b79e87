"""Kernel table: direct timings of the value/gradient and product kernels.

Runs on the untraced functions, each cell in its own loop, on
x^2 + 1 + 0.1 (e1 x + 1) over C, H and O and x^2 + 1 + 0.1 (x + 1) over R.
Each cell repeats its loop until it has run for at least ``MIN_LOOP_S`` and
reports the median of ``REPEATS`` such loops.
"""

from __future__ import annotations

import time

import numpy as np

BATCHES = (1, 16, 80, 1000)
MUL_BATCH = 1000
MIN_LOOP_S = 0.02
REPEATS = 5


def _per_call(fn) -> float:
    """Median seconds per call of ``fn`` over REPEATS timed loops."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_LOOP_S:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return float(np.median(samples))


def kernel_polynomial(poly, tag):
    """x^2 + 1 + 0.1 (e1 x + 1) over ``tag`` (e1 is the unit over R)."""
    d = tag.dimension
    direction = [[0.0] * d for _ in range(2)]
    direction[0][0] = 1.0
    direction[1][min(1, d - 1)] = 1.0
    base = poly.DAPolynomial.from_real(tag, [1, 0, 1])
    return poly.Deformation(base, poly.DAPolynomial.from_coords(tag, direction)).at(0.1)


def kernel_table(algebra, poly, seed: int) -> dict[str, float]:
    """``poly.vg_us.<A>.b<n>`` (us per point) and ``algebra.mul_ns.<A>``."""
    rng = np.random.default_rng(seed)
    out = {}
    for tag in (algebra.REALS, algebra.COMPLEX, algebra.QUATERNIONS, algebra.OCTONIONS):
        P = kernel_polynomial(poly, tag)
        d = tag.dimension
        vg = poly.value_gradient_fn(P)
        x = rng.normal(size=d)
        out[f"poly.vg_us.{tag}.b1"] = _per_call(lambda: vg(x)) * 1e6
        for n in BATCHES[1:]:
            X = rng.normal(size=(n, d))

            def batch(X=X):
                poly.evaluate_coords(P, X)
                poly.gradient_coords_batch(P, X)

            out[f"poly.vg_us.{tag}.b{n}"] = _per_call(batch) * 1e6 / n
        X = rng.normal(size=(MUL_BATCH, d))
        Y = rng.normal(size=(MUL_BATCH, d))
        out[f"algebra.mul_ns.{tag}"] = (
            _per_call(lambda: algebra.multiply_coords(d, X, Y)) * 1e9 / MUL_BATCH)
    return out
