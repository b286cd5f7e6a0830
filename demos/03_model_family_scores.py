"""
Scoring an identified model family
==================================

Identifies Box-Jenkins models of orders 2 to 5 on one twin recording and
scores every order with code-length information gain and the nAIC, BIC and
MDL criteria.  Higher information gain is better; the other three prefer
smaller values.
"""

from twindisc.coding import simo_information_gain
from twindisc.criteria import simo_criteria
from twindisc.sysid import identify_family
from twindisc.twin import PeltierParams, PidConfig, SensorConfig, SimConfig, simulate_closed_loop

params = PeltierParams(alpha=0.05, r_ohm=3.3, k_cond=0.3, c_heat=15.0)
cfg = SimConfig(
    setpoint=35.0,
    duration=500.0,
    heatsink_conductance=1.0,
    pid=PidConfig(kp=8.0, ki=0.0, kd=0.0),
    sensor=SensorConfig(noise_std=0.05, seed=1),
    label="35",
)
dataset = simulate_closed_loop(params, cfg)

print("identifying orders 22221..55551 on both channels (takes a moment) ...")
family = identify_family(dataset)

print(f"{'order':>6} {'IG(y)':>7} {'IG(u)':>7} {'IGT':>7} {'nAICT':>9} {'BICT':>11} {'mdlT':>9}")
for label in sorted({label for label, _ in family.fits}):
    fit_y, fit_u = family.fits[(label, "y")], family.fits[(label, "u")]
    # every score is a function of the fits' own free-run residuals
    residuals = (fit_y.sim_residuals, fit_u.sim_residuals)
    ig_y, ig_u = simo_information_gain(dataset, residuals, precision=2)
    crit_y, crit_u = simo_criteria(residuals, fit_y.model.n_params)
    # a two-channel model scores the sum of its channel scores
    print(
        f"{label:>6} {ig_y.gain:7d} {ig_u.gain:7d} {ig_y.gain + ig_u.gain:7d} "
        f"{crit_y.naic + crit_u.naic:9.4f} {crit_y.bic + crit_u.bic:11.2f} "
        f"{crit_y.mdl + crit_u.mdl:9.4f}"
    )

print()
print("The generating loop carries two thermal states under static control,")
print("so the order-2 row should take the nAIC, BIC and MDL minima.")
