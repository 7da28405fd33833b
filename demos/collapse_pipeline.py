# Collapse a 3-layer stack into one deep epitome and apply it in one
# step; the layered route and the one-step route agree entry for entry.

import time

import numpy as np

from ghne import (
    LayerSpec,
    Model,
    apply,
    collapse,
    composite_convolve,
    effective_shape,
    layer_to_bank,
)
from ghne.oracle import compare_banks, layered_forward, random_input

rng = np.random.default_rng(0)
model = Model(
    [
        LayerSpec("conv1", rng.uniform(0, 1, (2, 1, 5, 5)), 1),
        LayerSpec("conv2", rng.uniform(0, 1, (3, 2, 5, 5)), 2),
        LayerSpec("conv3", rng.uniform(0, 1, (2, 3, 5, 5)), 2),
    ]
)

# stride-2 kernels are resized to stride-1 equivalents first (5 -> 10),
# then extents add up as extent_1 + sum(extent_i - 1)
for depth in range(1, 4):
    print(f"layers 1..{depth} collapse to shape", effective_shape(model.layers[:depth]))

deep = collapse(model)
print("deep epitome:", deep.bank, "replacing layers", deep.collapsed_layers)

# every member carries the same total summand count
totals = deep.bank.s.sum(axis=(2, 3))
print("summand totals per member:\n", totals)

# one 28x28 input, both routes
x = random_input(rng, channels=1, shape=(28, 28))
layered = layered_forward(model, x)
one_step = apply(x, deep, crop="full")
report = compare_banks(layered, one_step, tol=1e-9)
print("layered vs one-step:", "PASS" if report.passed else "FAIL")
print("  max abs error:", report.max_abs_error)
print("  max rel error:", report.max_rel_error)
print("  count mismatches:", report.count_mismatches)

# each crop mode computes only its own window of the full result, so
# "same" and "valid" may differ from the full result's centre in the
# last bit of g (counts are exact in every mode)
print("full :", apply(x, deep, "full").spatial_shape)
print("same :", apply(x, deep, "same").spatial_shape)
print("valid:", apply(x, deep, "valid").spatial_shape)

# pay the fold once, then apply is one pass.  Both routes are timed on
# the same windowed (im2col) kernel; layered_forward above is the slow,
# independent reference and only checks.  Each contraction is a BLAS
# product batched over groups of output rows, whose cost is mostly
# gathering the windows.  This model has only 2 or 3 filters per layer,
# and a layered step gathers only a strided layer's 5x5 taps, not its
# 10x10 resized kernel, so the three layered steps gather less than the
# one pass (a 23x23 window over the input for 2 filters) and can run
# faster.  With more filters per gathered window the one pass wins, as
# on a 1-16-32-32 stack of 3x3 kernels.
layer_banks = [layer_to_bank(layer) for layer in model.layers]
t0 = time.perf_counter()
for _ in range(5):
    bank = x
    for layer_bank in layer_banks:
        bank = composite_convolve(bank, layer_bank)
t_layered = (time.perf_counter() - t0) / 5
t0 = time.perf_counter()
for _ in range(5):
    apply(x, deep, "full")
t_one = (time.perf_counter() - t0) / 5
print(f"layered {t_layered * 1e3:.1f} ms vs one-step {t_one * 1e3:.1f} ms per input")
