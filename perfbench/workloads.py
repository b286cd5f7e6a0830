"""The three workloads: their inputs, CLI command lines and output checks."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import inputs
from twindisc import configio, matching, sysid, twin

CONFIGS = Path(configio.__file__).resolve().parents[2] / "configs"
SIM_CONFIG = CONFIGS / "twin_default.ini"
MATCHED_PARAMS = CONFIGS / "peltier_matched.ini"
SWEEP_ROWS = 600
# A match's work depends on how soon its starts converge, which depends on
# the sensor noise.  The simulation count per match ranged 1,766-2,943 on
# 600 s records (sensor seeds 0-9, 16-30 s a call) and 2,672-4,181 on 150 s
# ones (seeds 0-7).  On 60 s records three or four of the five starts run
# to the 150-iteration cap, so the count stays within 4,885-5,200 (seeds
# 0-11) and a call takes about 5 s.
MATCH_DURATION_S = 60


def _digest(paths) -> str:
    """One hash over the names and bytes of a call's output files."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    command = ""
    points = 1  # operating points one call handles
    # Seconds of --seconds that one panel input stands for.  A run's panel
    # size depends on --seconds alone, never on how fast the calls are, so
    # both sides of a comparison do the same work.
    seconds_per_input = 1.0
    expected_counts: dict = {}

    def panel_size(self, seconds: float) -> int:
        return max(1, min(inputs.MAX_PANEL, round(seconds / self.seconds_per_input)))


class DiscriminateCampaign(Workload):
    name = "discriminate-campaign"
    command = (
        "twindisc discriminate dataset_30.csv dataset_50.csv dataset_70.csv "
        "dataset_90.csv --out report.json  (campaign from simulate --config "
        "configs/twin_default.ini --params configs/peltier_matched.ini --seed 4*(100*seed+i))"
    )
    points = len(inputs.SETPOINTS)
    seconds_per_input = 15.0  # one call takes 15-19 s
    expected_counts = {
        "sysid.identify_family": len(inputs.SETPOINTS),
        "sysid.fit_output_error": 2 * len(inputs.SETPOINTS) * len(sysid.DEFAULT_ORDER_LABELS),
        "nugap.nugap": len(inputs.SETPOINTS) * (len(inputs.SETPOINTS) - 1) // 2,
    }

    def prepare(self, seed, k, in_dir):
        panel = []
        for i in range(k):
            camp = in_dir / f"campaign_{i}"
            inputs.write_campaign(SIM_CONFIG, MATCHED_PARAMS, camp, 4 * inputs.sub_seed(seed, i))
            panel.append([camp / f"dataset_{sp}.csv" for sp in inputs.SETPOINTS])
        return panel

    def argv(self, item, out):
        return ["discriminate", *item, "--out", out / "report.json"]

    def check(self, item, out, checks):
        paths = [out / "report.json", out / "report.csv"]
        report = json.loads(paths[0].read_text(encoding="utf-8"))
        checks.expect(report["errors"] == [], f"{self.name}: report errors {report['errors']}")
        losses = [
            row[ch]["loss"] for ds in report["datasets"] for row in ds["orders"] for ch in ("y", "u")
        ]
        geomean = math.exp(sum(math.log(v) for v in losses) / len(losses))
        return {"fit_loss_geomean": geomean, "digest": _digest(paths)}


class Match70(Workload):
    name = "match-70"
    command = (
        f"twindisc match dataset_70.csv --initial datasheet --config match_sim.ini "
        f"--out match.json  (match_sim.ini is configs/twin_default.ini with "
        f"duration_s = {MATCH_DURATION_S}; campaign from simulate with it and "
        f"configs/peltier_matched.ini --seed 4*(100*seed+i))"
    )
    seconds_per_input = 5.0  # one call takes 4-7 s; its simulation count varies by 6% at most

    def prepare(self, seed, k, in_dir):
        self.truth = configio.load_params_file(MATCHED_PARAMS)[70.0]
        self.config = inputs.write_config_with(
            SIM_CONFIG, in_dir / "match_sim.ini", "simulation", {"duration_s": MATCH_DURATION_S}
        )
        panel = []
        for i in range(k):
            camp = in_dir / f"campaign_{i}"
            inputs.write_campaign(self.config, MATCHED_PARAMS, camp, 4 * inputs.sub_seed(seed, i))
            panel.append(camp / "dataset_70.csv")
        return panel

    def argv(self, item, out):
        return [
            "match", item, "--initial", "datasheet", "--config", self.config,
            "--out", out / "match.json",
        ]

    def check(self, item, out, checks):
        path = out / "match.json"
        result = json.loads(path.read_text(encoding="utf-8"))
        problem = matching.MatchProblem(
            dataset=twin.read_csv(item),
            initial=matching.INITIAL_GUESS_PRESETS["datasheet"],
            sim_config=configio.load_sim_config(self.config)[0],
        )
        truth_sse = matching.sse_cost(problem, self.truth)
        checks.expect(
            result["sse"] <= truth_sse,
            f"{self.name}: fitted sse {result['sse']!r} > sse at the generating parameters {truth_sse!r}",
        )
        fitted = result["params"]
        err = max(
            abs(fitted[key] / getattr(self.truth, attr) - 1.0)
            for key, attr in (("alpha_v_per_k", "alpha"), ("k_w_per_k", "k_cond"), ("c_j_per_k", "c_heat"))
        )
        return {
            "match_sse": result["sse"],
            "match_sse_ratio": result["sse"] / truth_sse,
            "param_err_max": err,
            "digest": _digest([path]),
        }


class SimulateSweep(Workload):
    name = "simulate-sweep"
    command = (
        "twindisc simulate --config sweep_sim.ini --params sweep_params.ini --out-dir sweep "
        "--seed 1024*(100*seed+i)  (1024 setpoints, log-normal parameter spread sigma=0.1)"
    )
    points = len(inputs.SETPOINTS) * inputs.SWEEP_STEPS
    seconds_per_input = 30.0  # one call takes about 12 s; its work does not vary
    expected_counts = {"twin.simulate_closed_loop": points}

    def prepare(self, seed, k, in_dir):
        panel = []
        for i in range(k):
            sub = inputs.sub_seed(seed, i)
            pair_dir = in_dir / f"sweep_{i}"
            pair_dir.mkdir(parents=True)
            config, params = inputs.write_sweep_pair(SIM_CONFIG, MATCHED_PARAMS, pair_dir, sub)
            panel.append((config, params, self.points * sub))
        return panel

    def argv(self, item, out):
        config, params, sensor_seed = item
        return [
            "simulate", "--config", config, "--params", params,
            "--out-dir", out / "sweep", "--seed", sensor_seed,
        ]

    def check(self, item, out, checks):
        sweep = out / "sweep"
        manifest = json.loads((sweep / "manifest.json").read_text(encoding="utf-8"))
        listed = sorted(entry["file"] for entry in manifest["datasets"])
        files = sorted(p.name for p in sweep.glob("*.csv"))
        checks.expect(
            len(files) == self.points and listed == files,
            f"{self.name}: {len(files)} CSVs, manifest lists {len(listed)}",
        )
        short = [
            name for name in files
            if (sweep / name).read_bytes().count(b"\n") != SWEEP_ROWS + 1
        ]
        checks.expect(not short, f"{self.name}: {len(short)} CSVs without {SWEEP_ROWS} rows")
        paths = [sweep / name for name in files] + [sweep / "manifest.json"]
        return {"digest": _digest(paths)}


WORKLOADS = {w.name: w for w in (DiscriminateCampaign(), Match70(), SimulateSweep())}
