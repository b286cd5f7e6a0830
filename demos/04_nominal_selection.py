"""
Nominal parameter-set selection with the nu-gap metric
======================================================

Identifies one SIMO model per operating point and fills the pairwise
nu-gap matrix.  The model with the smallest cumulative distance to the
others is the nominal one: a controller designed against it degrades least
across the whole family.
"""

import numpy as np

from twindisc.lti import SimoModel
from twindisc.nugap import select_nominal
from twindisc.sysid import identify_family
from twindisc.twin import PeltierParams, SensorConfig, SimConfig, generate_campaign

MATCHED = {
    30.0: PeltierParams(alpha=0.0963, r_ohm=3.3, k_cond=0.30, c_heat=34.9),
    50.0: PeltierParams(alpha=0.0825, r_ohm=3.3, k_cond=0.35, c_heat=31.93),
    70.0: PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1),
    90.0: PeltierParams(alpha=0.0295, r_ohm=3.3, k_cond=0.38, c_heat=13.7),
}

base = SimConfig(setpoint=30.0, duration=400.0, sensor=SensorConfig(noise_std=0.05))
datasets = generate_campaign(MATCHED, base, seed=0)

print("identifying one order-2 SIMO model per setpoint ...")
models = []
for ds in datasets:
    fits = identify_family(ds, order_labels=("22221",)).fits
    tf_y, tf_u = (fits[("22221", ch)].model.deterministic_tf(ds.sample_time) for ch in ("y", "u"))
    # each model is labelled by its dataset, so the matrix names the setpoints
    models.append(SimoModel(tf_y, tf_u, label=ds.label))

matrix, winner, tie = select_nominal(models)

print()
header = " ".join(f"{lbl:>8}" for lbl in matrix.labels)
print(f"{'':>8} {header}")
for lbl, row in zip(matrix.labels, matrix.values):
    cells = " ".join(f"{v:8.4f}" for v in row)
    print(f"{lbl:>8} {cells}")
print()
print("cumulative:", np.array2string(matrix.cumulative, precision=4))
print(f"nominal set: index {winner} (setpoint {matrix.labels[winner]} degC)"
      + ("  [tie]" if tie else ""))
