#!/usr/bin/env python3
"""A tour of the decay objects: head schedules, 1D masks, and the 2D matrix.

Every attention head gets its own decay rate from an exponent range, so heads
see the grid at different scales. The 2D Manhattan matrix factors exactly into
a height part and a width part, which is what makes the decomposed attention
form exact rather than an approximation.
"""

import numpy as np

from masa_kit import (GridShape, decay_axial_pair, decay_bidirectional_1d,
                      decay_causal_1d, decay_manhattan_2d, gamma_schedule)

np.set_printoptions(precision=4, suppress=True)

print("Per-head decay schedule for an exponent range (2, 8) across 4 heads:")
for i, g in enumerate(gamma_schedule(2, 8, 4), start=1):
    print(f"  head {i}: gamma = {g:.6f}   (influence halves every "
          f"{np.log(0.5) / np.log(g):.1f} grid steps)")
print()

print("Causal 1D decay, length 5, gamma 0.5 (rows attend only backwards):")
print(decay_causal_1d(5, 0.5).data)
print()

print("Bidirectional 1D decay, same rate (symmetric, unit diagonal):")
print(decay_bidirectional_1d(5, 0.5).data)
print()

grid = GridShape(3, 3)
print(f"2D Manhattan decay on a {grid.height}x{grid.width} grid, gamma 0.5.")
print("Row 4 is the center token; reshaped to the grid it shows the")
print("diamond-shaped influence pattern around it:")
d2d = decay_manhattan_2d(grid, 0.5)
print(d2d.data[4].reshape(3, 3))
print()

print("Exact factorization: kron(height factor, width factor) == 2D matrix")
d_h, d_w = decay_axial_pair(grid, 0.5)
diff = np.max(np.abs(np.kron(d_h.data, d_w.data) - d2d.data))
print(f"  max abs difference: {diff:.2e}")
