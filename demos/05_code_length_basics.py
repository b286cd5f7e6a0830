"""
Code-length scoring from first principles
=========================================

Shows the number codec, the look-up-table pricing, and how a model earns
information gain by shrinking the residual table relative to the trivial
model that stores the raw observations.
"""

import numpy as np

from twindisc import (
    encode_number,
    information_gain,
    model_length,
    table_length,
    trivial_length,
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

trivial = trivial_length(signal)
# a model is priced by its residual table, here drawn at two noise levels
good = model_length(rng.normal(0.0, 0.05, size=200))
poor = model_length(rng.normal(0.0, 5.0, size=200))

print()
print("scoring a 200-sample signal:")
print(f"  trivial model: program {trivial.program_length:3d} + table {trivial.table_length} = {trivial.total}")
for name, report in (("good", good), ("poor", poor)):
    ig = information_gain(trivial, report)
    print(
        f"  {name} model:   program {report.program_length} + table {report.table_length:4d} = "
        f"{report.total:5d}   gain {ig.gain:5d}   explanation degree {ig.explanation_degree:.3f}"
    )

print()
print("precision (decimal digits kept, `discriminate --precision`, default 2) is the")
print("codec's one setting; coarser tokens shrink every table:")
for precision in (1, 2, 3):
    print(f"  precision {precision}: trivial table costs {trivial_length(signal, precision).table_length}")
