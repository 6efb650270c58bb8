"""The even configuration space, its reversible measure, and the generator.

Particles sit on N sites, carry labels, and must pair up: every site holds an
even number of particles.  The flow moves pairs between sites and swaps
partners; its generator is self-adjoint for the measure pi(x) = prod (n_i!!)^2,
whose square root counts the perfect matchings stabilizing x.

Run:  python demos/03_configuration_space.py
"""

import numpy as np

from momentflow import (
    assemble_generator,
    chi_indicator,
    enumerate_space,
    jump,
    kernel_projection,
    matchings,
)
from momentflow.configspace import stabilizer_matching_count

space = enumerate_space(N=6, n=4)
print(f"|Lambda^4_6| = {space.size} configurations")
members = list(map(tuple, space.configs.tolist()))  # rows of a (size, n) array
print("a few members:", members[:3], "...", members[-2:])
print("pi((2,2,2,2)) =", space.pi[space.idx((2, 2, 2, 2))],
      " sqrt(pi) =", stabilizer_matching_count((2, 2, 2, 2)))

print("\nmove (0,0,1,1) -> ", jump((0, 0, 1, 1), "move", 0, 1, 0, 1))
print("swap (0,0,1,1) -> ", jump((0, 0, 1, 1), "swap", 0, 2, 0, 1))

# Assemble the full generator with inverse-square coefficients.
from momentflow import CoefficientSchedule

C = CoefficientSchedule.inverse_square(6, upsilon=1.0).coefficients()
B = assemble_generator(space, C)
print("\ngenerator: reversibility defect =", B.reversibility_defect(),
      " row-sum defect =", B.row_sum_defect())

# The kernel is spanned by the three stratum indicators chi_sigma.
for sigma in matchings(4):
    chi = chi_indicator(space, sigma)
    print(f"B chi_{sigma} max = {np.max(np.abs(B.mat @ chi)):.2e}")

K = kernel_projection(space)
print("kernel projection idempotency defect:",
      np.max(np.abs(K.mat @ K.mat - K.mat)))
