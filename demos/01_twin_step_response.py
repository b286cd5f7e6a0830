"""
Closed-loop step responses of the thermal twin
==============================================

Simulates the Peltier twin at the four operating points with the matched
parameter sets and the frozen PID configuration, then summarizes how each
run settles.
"""

import numpy as np

from twindisc.twin import PeltierParams, SensorConfig, SimConfig, generate_campaign

MATCHED = {
    30.0: PeltierParams(alpha=0.0963, r_ohm=3.3, k_cond=0.30, c_heat=34.9),
    50.0: PeltierParams(alpha=0.0825, r_ohm=3.3, k_cond=0.35, c_heat=31.93),
    70.0: PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1),
    90.0: PeltierParams(alpha=0.0295, r_ohm=3.3, k_cond=0.38, c_heat=13.7),
}

base = SimConfig(setpoint=30.0, duration=600.0, sensor=SensorConfig(noise_std=0.05))
datasets = generate_campaign(MATCHED, base, seed=0)

print(f"{'setpoint':>8} {'final y':>9} {'overshoot':>10} {'peak u':>7} {'settle s':>9}")
for ds in datasets:
    setpoint = ds.r[-1]
    overshoot = float(np.max(ds.y) - setpoint)
    inside = np.abs(ds.y - setpoint) < 0.5
    settle = next(
        (ds.t[k] for k in range(len(ds)) if inside[k:].all()), float("nan")
    )
    print(
        f"{setpoint:8.0f} {ds.y[-1]:9.2f} {overshoot:10.2f} "
        f"{np.max(ds.u):7.1f} {settle:9.0f}"
    )

print()
print("Each column of a dataset is available as ds.t, ds.r, ds.u, ds.y;")
print("twindisc.twin.write_csv(ds, path) exports the standard t,r,u,y CSV.")
