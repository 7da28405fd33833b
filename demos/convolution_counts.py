# Hamming convolution and why the summand counts must ride along.
# The raw (count-free) version is NOT associative; epitomes fix that.

import numpy as np

from ghne import Epitome, convolve, make_normalized, merged_pair
from ghne.oracle import (
    find_nonassoc_witness,
    outer_product,
    raw_convolve,
    raw_convolve_with_counts,
)

# the outer product is every pairwise ghd between two tuples
x = (0.0, 1.0, 0.5)
a = (0.0, 1.0)
op = outer_product([x, a])
print("outer product grid:\n", op)

# hamming convolution groups the grid by anti-diagonals (index sums)
# and adds each group; position n sums |S(n)| entries
sums, counts = raw_convolve_with_counts([x, a])
print("conv sums  :", sums)
print("group sizes:", counts)  # (1, 2, 2, 1) for lengths 3 and 2

# the same through the epitome path: g carries the sums, s the counts
e = convolve(make_normalized(x), make_normalized(a))
print("epitome g  :", e.g)
print("epitome s  :", e.s)

# merged entries stand in for their summands exactly; merging
# (g=0.6,s=2) with (g=0.9,s=3) gives the same as summing all 6 pairs
print("merged_pair(0.6,2,0.9,3) =", merged_pair(0.6, 2, 0.9, 3))

# now the failure mode: drop the counts and re-convolve. order matters
xs, ys, zs, disc = find_nonassoc_witness(seed=0)
left = raw_convolve([raw_convolve([xs, ys]), zs])
right = raw_convolve([xs, raw_convolve([ys, zs])])
print("raw (x*y)*z:", np.round(left, 4))
print("raw x*(y*z):", np.round(right, 4))
print("raw max gap:", disc)

# with counts carried the two groupings agree to rounding
ex, ey, ez = make_normalized(xs), make_normalized(ys), make_normalized(zs)
el = convolve(convolve(ex, ey), ez)
er = convolve(ex, convolve(ey, ez))
print("epitome max gap:", np.max(np.abs(el.g - er.g)))
print("counts equal   :", np.array_equal(el.s, er.s))

# counts are never optional: an epitome refuses s < 1
try:
    Epitome([0.5], [0])
except ValueError as err:
    print("rejected:", err)
