"""
Code-length scoring from first principles
=========================================

Shows the number codec, the look-up-table pricing, and how a model earns
information gain by shrinking the residual table relative to the trivial
model that stores the raw observations.
"""

import numpy as np

from twindisc.coding import (
    MODEL_PROGRAM_LENGTH,
    TRIVIAL_PROGRAM_LENGTH,
    encode_number,
    information_gain,
    table_length,
)

print("number codec at two decimals:")
for value in (10.34, -0.45, 0.0, 123.456):
    token = encode_number(value)
    print(f"  {value:10g} -> {token!r}  (length {len(token)})")

print()
print("a look-up table is priced as the sum of its token lengths:")
print(f"  [10.34, -0.45] costs {table_length([10.34, -0.45])} characters")

rng = np.random.default_rng(0)
signal = 25.0 + np.cumsum(rng.normal(0.0, 0.3, size=200))
# a model is priced by its residual table, here drawn at two noise levels
residuals = {
    "good": rng.normal(0.0, 0.05, size=200),
    "poor": rng.normal(0.0, 5.0, size=200),
}

print()
print("scoring a 200-sample signal (each length is program plus table):")
trivial_table = table_length(signal)
print(
    f"  trivial model: program {TRIVIAL_PROGRAM_LENGTH:3d} + table {trivial_table} "
    f"= {TRIVIAL_PROGRAM_LENGTH + trivial_table}"
)
for name, res in residuals.items():
    ig = information_gain(signal, res)
    print(
        f"  {name} model:   program {MODEL_PROGRAM_LENGTH} + table {table_length(res):4d} = "
        f"{ig.l_model:5d}   gain {ig.gain:5d}   explanation degree {ig.explanation_degree:.3f}"
    )

print()
print("precision (decimal digits kept, `discriminate --precision`, default 2) is the")
print("codec's one setting; coarser tokens shrink every table:")
for precision in (1, 2, 3):
    print(f"  precision {precision}: trivial table costs {table_length(signal, precision)}")
