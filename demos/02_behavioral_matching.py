"""
Behavioral matching round trip
==============================

Generates a noise-free recording from known physical parameters, then
recovers alpha, K and C by matching the twin's closed-loop response,
starting from the datasheet guess.  The electrical resistance stays pinned
at its measured 3.3 ohm.
"""

from twindisc.matching import INITIAL_GUESS_PRESETS, MatchProblem, match_parameters
from twindisc.twin import PeltierParams, SensorConfig, SimConfig, simulate_closed_loop

truth = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1)
cfg = SimConfig(setpoint=70.0, duration=300.0, sensor=SensorConfig())
dataset = simulate_closed_loop(truth, cfg)

problem = MatchProblem(
    dataset=dataset, initial=INITIAL_GUESS_PRESETS["datasheet"], sim_config=cfg
)
print("matching (deterministic multistart, a few seconds) ...")
result = match_parameters(problem)

print(f"{'':>12} {'alpha V/K':>10} {'K W/K':>8} {'C J/K':>8}")
start = problem.initial
print(f"{'start':>12} {start.alpha:10.4f} {start.k_cond:8.4f} {start.c_heat:8.2f}")
found = result.params
print(f"{'recovered':>12} {found.alpha:10.4f} {found.k_cond:8.4f} {found.c_heat:8.2f}")
print(f"{'truth':>12} {truth.alpha:10.4f} {truth.k_cond:8.4f} {truth.c_heat:8.2f}")
print()
print(
    f"sse = {result.sse:.3e}   iterations = {result.iterations}   "
    f"converged = {result.converged}   winning start = {result.start_index}"
)
