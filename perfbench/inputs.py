"""Seeded inputs for the benchmark workloads; nothing here is timed.

Every input is a file the program reads: campaign CSVs written by the
program's own ``simulate`` command, and INI files.  Input ``i`` of a run with
workload seed ``s`` is drawn from the sub-seed ``100 * s + i``, so runs with
different seeds share no input and input 0 of seed 0 is the shipped campaign
at sensor seed 0.
"""

from __future__ import annotations

import configparser
import contextlib
import io
from pathlib import Path

import numpy as np

from twindisc import cli, configio

SETPOINTS = (30, 50, 70, 90)
SWEEP_STEPS = 256  # points per anchor setpoint: anchor + k * 0.01 degC, k = 1..256
SWEEP_SIGMA = 0.1  # log-normal spread of the per-point parameter draw
MAX_PANEL = 100


def sub_seed(seed: int, index: int) -> int:
    if not 0 <= index < MAX_PANEL:
        raise ValueError(f"panel index must lie in [0, {MAX_PANEL})")
    return MAX_PANEL * seed + index


def run_cli(argv) -> int:
    """``twindisc.cli.main`` with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def write_campaign(config: Path, params: Path, out_dir: Path, sensor_seed: int) -> None:
    code = run_cli(
        ["simulate", "--config", config, "--params", params,
         "--out-dir", out_dir, "--seed", sensor_seed]
    )
    if code != 0:
        raise RuntimeError(f"simulate exited {code} while writing {out_dir}")


def write_config_with(src: Path, dst: Path, section: str, values: dict) -> Path:
    """Copy an INI file, overriding keys of one section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(src, encoding="utf-8")
    for key, value in values.items():
        parser.set(section, key, str(value))
    with open(dst, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return dst


def sweep_setpoints() -> list[tuple[int, str]]:
    """(anchor, setpoint text) of every sweep point, in campaign order."""
    return [
        (anchor, f"{anchor + k / 100:.2f}")
        for anchor in SETPOINTS
        for k in range(1, SWEEP_STEPS + 1)
    ]


def write_sweep_pair(config: Path, params: Path, out_dir: Path, seed: int) -> tuple[Path, Path]:
    """The sweep's INI pair: 1024 setpoints, each with its own parameter set.

    Point ``anchor + k * 0.01`` takes the matched set of its anchor with
    alpha, K and C each scaled by ``exp(SWEEP_SIGMA * N(0, 1))``.
    """
    matched = configio.load_params_file(params)
    rng = np.random.default_rng(seed)
    lines = ["[peltier]", f"r_ohm = {matched[float(SETPOINTS[0])].r_ohm!r}", ""]
    points = sweep_setpoints()
    for anchor_sp, text in points:
        anchor = matched[float(anchor_sp)]
        alpha, k_cond, c_heat = (
            v * float(np.exp(SWEEP_SIGMA * rng.standard_normal()))
            for v in (anchor.alpha, anchor.k_cond, anchor.c_heat)
        )
        lines += [
            f"[peltier.{text}]",
            f"alpha_v_per_k = {alpha!r}",
            f"k_w_per_k = {k_cond!r}",
            f"c_j_per_k = {c_heat!r}",
            "",
        ]
    params_out = out_dir / "sweep_params.ini"
    params_out.write_text("\n".join(lines), encoding="utf-8")
    config_out = write_config_with(
        config, out_dir / "sweep_sim.ini", "simulation", {"setpoints": ", ".join(text for _, text in points)}
    )
    return config_out, params_out
