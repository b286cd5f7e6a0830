import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from twindisc import cli, configio, criteria, matching, sysid
from twindisc.twin import (
    PeltierParams,
    SensorConfig,
    SimConfig,
    TimeSeriesDataset,
    generate_campaign,
    read_csv,
    simulate_closed_loop,
    write_csv,
)

from helpers import MATCHED_SETS, json_delta, read_report, validate_report

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIG = """\
[simulation]
setpoints = 30, 50
duration_s = 120
sample_time_s = 1.0

[sensor]
noise_std_c = 0.05
"""

PARAMS = """\
[peltier]
r_ohm = 3.3
alpha_v_per_k = 0.08
k_w_per_k = 0.3
c_j_per_k = 15.0
"""


def make_dataset(path, seed, n=160, label=None):
    """Small effectively-second-order dataset for fast pipeline tests."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    r = np.where(t >= 5, 1.0, 0.0)
    f = np.real(np.poly([0.8 * np.exp(0.3j), 0.8 * np.exp(-0.3j)]))
    y = scipy.signal.lfilter([0.0, 0.4, 0.1], f, r) + 0.02 * rng.standard_normal(n)
    u = scipy.signal.lfilter([0.0, 0.9, -0.2], f, r) + 0.02 * rng.standard_normal(n)
    ds = TimeSeriesDataset(t, r, u, y, label=label or "")
    write_csv(ds, path)
    return path


@pytest.fixture()
def campaign_files(tmp_path):
    return [
        str(make_dataset(tmp_path / f"set_{i}.csv", seed=i)) for i in range(2)
    ]


MODULES_PER_COMMAND = """\
import json, sys

from twindisc import cli

config, params, out = sys.argv[1:]
datasets = [f"{out}/dataset_30.csv", f"{out}/dataset_50.csv"]
runs = {
    "import": None,
    "simulate": ["simulate", "--config", config, "--params", params, "--out-dir", out],
    "match": ["match", datasets[0], "--config", config, "--out", f"{out}/m.json"],
    "discriminate": ["discriminate", *datasets, "--out", f"{out}/r.json"],
}
seen = {}
for name, argv in runs.items():
    code = cli.main(argv) if argv else 0
    loaded = {top: sorted(m for m in sys.modules if m.partition(".")[0] == top)
              for top in ("scipy", "jsonschema")}
    process = [m for m in ("multiprocessing", "concurrent.futures", "subprocess")
               if m in sys.modules]
    seen[name] = {"code": code, "process": process, **loaded}
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def modules_per_command(tmp_path_factory):
    """The scipy, jsonschema and process-pool modules loaded after each command, in turn.

    Runs in a fresh interpreter, since this one has both loaded already.
    """
    tmp_path = tmp_path_factory.mktemp("modules_per_command")
    cfg = tmp_path / "sim.ini"
    cfg.write_text(CONFIG)
    params = tmp_path / "params.ini"
    params.write_text(PARAMS)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PER_COMMAND, str(cfg), str(params), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert [run["code"] for run in seen.values()] == [0, 0, 0, 0]
    return seen


def test_only_discriminate_loads_scipy(modules_per_command):
    # importing scipy.linalg costs about half of a command's start-up, and
    # only model fitting uses it
    seen = {name: run["scipy"] for name, run in modules_per_command.items()}
    assert seen["import"] == seen["simulate"] == seen["match"] == []
    assert "scipy.linalg" in seen["discriminate"]


def test_no_command_loads_jsonschema(modules_per_command):
    # the report schema is checked by the tests, not on every run
    seen = {name: run["jsonschema"] for name, run in modules_per_command.items()}
    assert seen == {"import": [], "simulate": [], "match": [], "discriminate": []}


def test_start_up_loads_no_process_module(modules_per_command):
    # simulate's writer process is a bare os.fork, so neither start-up nor
    # simulate loads multiprocessing, concurrent.futures or subprocess (scipy,
    # which only discriminate loads, brings in the last two)
    seen = {name: run["process"] for name, run in modules_per_command.items()}
    assert seen["import"] == seen["simulate"] == seen["match"] == []


class TestSimulateCommand:
    def test_writes_datasets_and_manifest(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        code = cli.main(
            [
                "simulate",
                "--config", str(cfg),
                "--params", str(params),
                "--out-dir", str(out),
                "--seed", "9",
            ]
        )
        assert code == 0
        assert sorted(os.listdir(out)) == [
            "dataset_30.csv",
            "dataset_50.csv",
            "manifest.json",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert len(manifest["config_sha256"]) == 64
        assert [d["sensor_seed"] for d in manifest["datasets"]] == [9, 10]

    def test_manifest_records_each_input_and_run(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]
        assert cli.main([*argv, "--seed", "9"]) == 0
        expected = {
            "seed": 9,
            "config": "sim.ini",
            "config_sha256": hashlib.sha256(cfg.read_bytes()).hexdigest(),
            "params": "params.ini",
            "params_sha256": hashlib.sha256(params.read_bytes()).hexdigest(),
            "datasets": [
                {"label": "30", "file": "dataset_30.csv", "sensor_seed": 9},
                {"label": "50", "file": "dataset_50.csv", "sensor_seed": 10},
            ],
        }
        assert (out / "manifest.json").read_bytes() == (
            json.dumps(expected, indent=2) + "\n"
        ).encode()

    def test_stdout_names_each_file_written_and_nothing_on_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            f"wrote {out / 'dataset_30.csv'} (120 samples)\n"
            f"wrote {out / 'dataset_50.csv'} (120 samples)\n"
            f"wrote {out / 'manifest.json'}\n"
        )

        run = cli.twin.simulate_closed_loop
        labels = []

        def fail_third(params, cfg):
            labels.append(cfg.label)
            if len(labels) == 3:
                raise cli.twin.SimulationDivergedError("the third run failed")
            return run(params, cfg)

        monkeypatch.setattr(cli.twin, "simulate_closed_loop", fail_third)
        assert cli.main(self._four_setpoints(tmp_path, tmp_path / "four")) == 1
        assert labels == ["30", "50", "70"]
        assert capsys.readouterr().out == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)

        def run(out):
            assert cli.main(
                [
                    "simulate",
                    "--config", str(cfg),
                    "--params", str(params),
                    "--out-dir", str(out),
                    "--seed", "3",
                ]
            ) == 0
            return {
                name: (out / name).read_bytes() for name in sorted(os.listdir(out))
            }

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_zero_duration_config_rejected_without_output(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulation]\nsetpoints = 30\nduration_s = 0\n")
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        code = cli.main(
            [
                "simulate",
                "--config", str(cfg),
                "--params", str(params),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ("[simulation]\nsetpoints = 30\n[pid]\nkp = nan\n", "[pid] kp: 'nan'"),
            ("[simulation]\nsetpoints = 30\nduration_s = inf\n",
             "[simulation] duration_s: 'inf'"),
            ("[simulation]\nsetpoints = 30, nan\n", "[simulation] setpoint nan"),
        ],
        ids=["pid_kp_nan", "duration_inf", "setpoint_nan"],
    )
    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(config)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]
        )
        assert code == 2
        assert f"{message} is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_setpoint_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulation]\nsetpoints = 30, 70, 70\nduration_s = 60\n")
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]
        )
        assert code == 2
        assert "setpoint 70 is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_campaign_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        # the first run succeeds, the second's Euler step is unstable
        params.write_text(
            PARAMS.replace("c_j_per_k = 15.0", "c_j_per_k = 20")
            + "\n[peltier.50]\nc_j_per_k = 0.001\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset_30.csv").write_text("old")
        code = cli.main(
            ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the Euler step of 0.1 s is unstable") and err.count("\n") == 1
        assert sorted(os.listdir(out)) == ["dataset_30.csv"]
        assert (out / "dataset_30.csv").read_text() == "old"

    def test_memory_does_not_grow_with_the_campaign(self, tmp_path, monkeypatch):
        # The closed loop runs about 80 times slower under tracemalloc, so a stand-in
        # returns fresh 600-sample columns: what is measured is what the
        # command keeps of its runs, not what one run allocates.
        def run(params, cfg):
            t = np.arange(cfg.n_samples) * cfg.sample_time
            return TimeSeriesDataset(t, t + cfg.setpoint, 0.5 * t, t - 1.0, label=cfg.label)

        monkeypatch.setattr(cli.twin, "simulate_closed_loop", run)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)

        def peak(n):
            cfg = tmp_path / f"sim_{n}.ini"
            setpoints = ", ".join(str(30 + i) for i in range(n))
            cfg.write_text(f"[simulation]\nsetpoints = {setpoints}\nduration_s = 600\n")
            argv = ["simulate", "--config", str(cfg), "--params", str(params),
                    "--out-dir", str(tmp_path / f"out_{n}")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call caches stay out of the comparison
        # holding every run would add 60 x 600 x 4 float64 values, 1,125 KiB
        assert peak(64) - peak(4) < 100 * 1024

    @pytest.mark.parametrize(
        "config, params, message",
        [
            ("[simulation]\nsetpoints = 30\nduration = 300\n", PARAMS,
             "[simulation] duration: unknown key"),
            (CONFIG + "seed = 5\n", PARAMS, "[sensor] seed: unknown key"),
            (CONFIG, PARAMS + "[peltier.30]\n[peltier.30.0]\n",
             "[peltier.30.0] repeats setpoint 30"),
            ("[simulation]\nsetpoints = 30\nduration_s = 1000001\n", PARAMS,
             "at most 1000000 samples"),
            (CONFIG.replace("[simulation]", "[simulaton]"), PARAMS,
             "sim.ini: [simulaton]: unknown section"),
            (CONFIG, PARAMS + "[pelteir.30]\nr_ohm = 1.0\n",
             "params.ini: [pelteir.30]: unknown section"),
            (CONFIG.replace("30, 50", "30.000001, 30.000002"), PARAMS,
             "setpoints 30.000001 and 30.000002 share the label '30'"),
        ],
        ids=["unknown_sim_key", "unknown_sensor_key", "repeated_setpoint_section",
             "too_many_samples", "misspelled_sim_section", "misspelled_params_section",
             "setpoints_sharing_a_label"],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, config, params, message):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(config)
        params_path = tmp_path / "params.ini"
        params_path.write_text(params)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", str(cfg), "--params", str(params_path), "--out-dir", str(out)]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["config", "params"])
    def test_non_utf8_file_is_usage_error_naming_the_file_once(self, tmp_path, capsys, bad):
        files = {"config": tmp_path / "sim.ini", "params": tmp_path / "params.ini"}
        files["config"].write_text(CONFIG)
        files["params"].write_text(PARAMS)
        files[bad].write_bytes(files[bad].read_bytes() + b"# caf\xe9\n")
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", str(files["config"]), "--params", str(files["params"]),
             "--out-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: 'utf-8' codec can't decode")
        assert err.count(str(files[bad])) == 1
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "out"
        code = cli.main(
            [
                "simulate",
                "--config", str(cfg),
                "--params", str(params),
                "--out-dir", str(out),
                "--seed", "-1",
            ]
        )
        assert code == 2
        assert "error: --seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_naming_a_file_is_usage_error(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG)
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr(
            cli.twin, "generate_campaign", lambda *a, **k: pytest.fail("simulated")
        )
        code = cli.main(
            [
                "simulate",
                "--config", str(cfg),
                "--params", str(params),
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "error: --out-dir" in capsys.readouterr().err

    def _four_setpoints(self, tmp_path, out):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(CONFIG.replace("setpoints = 30, 50", "setpoints = 30, 50, 70, 90"))
        params = tmp_path / "params.ini"
        params.write_text(PARAMS)
        return ["simulate", "--config", str(cfg), "--params", str(params), "--out-dir", str(out)]

    @pytest.mark.parametrize("taken", ["dataset_70.csv", "manifest.json"])
    def test_output_taken_by_a_directory_is_usage_error_before_any_run(
        self, tmp_path, monkeypatch, capsys, taken
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset_30.csv").write_text("old")
        (out / taken).mkdir()
        monkeypatch.setattr(
            cli.twin, "generate_campaign", lambda *a, **k: pytest.fail("simulated")
        )
        code = cli.main(self._four_setpoints(tmp_path, out))
        assert code == 2
        assert "is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == sorted(["dataset_30.csv", taken])
        assert (out / "dataset_30.csv").read_text() == "old"

    def test_failed_write_is_usage_error_and_replaces_nothing(self, tmp_path, capsys):
        # the third of four runs cannot be written once the first two are
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset_30.csv").write_text("old")
        (out / "dataset_70.csv.tmp").mkdir()
        code = cli.main(self._four_setpoints(tmp_path, out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "dataset_70.csv.tmp" in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(out)) == ["dataset_30.csv", "dataset_70.csv.tmp"]
        assert (out / "dataset_30.csv").read_text() == "old"

    @pytest.fixture()
    def writer_pids(self, monkeypatch):
        """The pid of each process the command forks."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @staticmethod
    def _assert_reaped(pids):
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    def test_writer_process_is_reaped_after_a_campaign(self, tmp_path, writer_pids):
        out = tmp_path / "out"
        assert cli.main(self._four_setpoints(tmp_path, out)) == 0
        self._assert_reaped(writer_pids)
        assert sorted(os.listdir(out)) == [
            "dataset_30.csv", "dataset_50.csv", "dataset_70.csv", "dataset_90.csv",
            "manifest.json",
        ]

    @pytest.mark.parametrize(
        "error", [cli.twin.SimulationDivergedError, KeyboardInterrupt]
    )
    def test_writer_process_is_reaped_when_the_third_run_fails(
        self, tmp_path, monkeypatch, capsys, writer_pids, error
    ):
        # two runs have gone to the writer when the third one raises
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset_30.csv").write_text("old")
        run = cli.twin.simulate_closed_loop
        labels = []

        def fail_third(params, cfg):
            labels.append(cfg.label)
            if len(labels) == 3:
                raise error("the third run failed")
            return run(params, cfg)

        monkeypatch.setattr(cli.twin, "simulate_closed_loop", fail_third)
        argv = self._four_setpoints(tmp_path, out)
        if error is KeyboardInterrupt:
            # an exception that is not a command's failure propagates as it is
            with pytest.raises(KeyboardInterrupt, match="the third run failed"):
                cli.main(argv)
        else:
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == "error: the third run failed\n"
        assert labels == ["30", "50", "70"]
        self._assert_reaped(writer_pids)
        assert sorted(os.listdir(out)) == ["dataset_30.csv"]
        assert (out / "dataset_30.csv").read_text() == "old"

    def test_writer_process_is_reaped_when_it_fails(self, tmp_path, capsys, writer_pids):
        # the writer cannot open the third run's file; its error is the command's
        out = tmp_path / "out"
        out.mkdir()
        (out / "dataset_70.csv.tmp").mkdir()
        code = cli.main(self._four_setpoints(tmp_path, out))
        assert code == 2
        assert f"{out / 'dataset_70.csv.tmp'}" in capsys.readouterr().err
        self._assert_reaped(writer_pids)
        assert sorted(os.listdir(out)) == ["dataset_70.csv.tmp"]

    def test_writer_killed_mid_campaign_is_usage_error_and_replaces_nothing(
        self, tmp_path, monkeypatch, capsys, writer_pids
    ):
        # a writer that dies without raising is known only by its exit status;
        # the kill may land before or after it takes the third run
        out = tmp_path / "out"
        run = cli.twin.simulate_closed_loop
        labels = []

        def kill_writer_before_third(params, cfg):
            labels.append(cfg.label)
            if len(labels) == 3:
                os.kill(writer_pids[0], signal.SIGKILL)
            return run(params, cfg)

        monkeypatch.setattr(cli.twin, "simulate_closed_loop", kill_writer_before_third)
        assert cli.main(self._four_setpoints(tmp_path, out)) == 2
        assert capsys.readouterr().err == "error: the CSV writer process ended with exit code -9\n"
        self._assert_reaped(writer_pids)
        assert not out.exists()

    def test_failed_campaign_removes_the_directories_it_made(self, tmp_path, capsys):
        _, euler = TestMatchCommand._euler_case(tmp_path, capsys, 3000)
        new = tmp_path / "new"
        code = cli.main(["simulate", "--config", str(euler), "--params",
                         str(tmp_path / "params.ini"), "--out-dir", str(new / "out")])
        assert code == 1
        assert "the Euler step of 60 s is unstable" in capsys.readouterr().err
        assert not (new / "out").exists()
        assert not new.exists()

    def test_output_naming_an_input_is_usage_error_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        argv = self._four_setpoints(tmp_path, out)
        # the parameter file sits where the 50 degC run would be written
        params = out / "dataset_50.csv"
        params.write_text(PARAMS)
        argv[argv.index("--params") + 1] = str(params)
        monkeypatch.setattr(
            cli.twin, "generate_campaign", lambda *a, **k: pytest.fail("simulated")
        )
        code = cli.main(argv)
        assert code == 2
        assert f"error: output path {str(params)!r} is an input file" in capsys.readouterr().err
        assert os.listdir(out) == ["dataset_50.csv"]
        assert params.read_text() == PARAMS


class TestDiscriminateCommand:
    def test_report_structure_and_consistency(self, tmp_path, campaign_files):
        out = tmp_path / "report"
        code = cli.main(
            [
                "discriminate",
                *campaign_files,
                "--out", str(out),
                "--orders", "22221,33331",
                "--seed", "1",
            ]
        )
        assert code == 0
        report = read_report(tmp_path / "report.json")
        assert len(report["datasets"]) == 2
        for ds in report["datasets"]:
            for row in ds["orders"]:
                assert row["ig_total"] == row["y"]["gain"] + row["u"]["gain"]
                assert row["naic_total"] == pytest.approx(
                    row["y"]["naic"] + row["u"]["naic"]
                )
                assert row["mdl_total"] == pytest.approx(
                    row["y"]["mdl"] + row["u"]["mdl"]
                )
            orders = [row["order"] for row in ds["orders"]]
            for key in ("information_gain", "naic", "bic", "mdl"):
                assert ds["best"][key] in orders
        assert report["nugap"] is not None
        assert report["nugap"]["winner_index"] in (0, 1)
        csv_text = (tmp_path / "report.csv").read_text()
        header = csv_text.splitlines()[0].split(",")
        assert header[:3] == ["setpoint", "order", "n_params"]
        assert len(csv_text.splitlines()) == 1 + 2 * 2

    def test_report_csv_rows_fill_the_header_and_flag_the_best_orders(
        self, tmp_path, campaign_files
    ):
        out = tmp_path / "report"
        assert cli.main(["discriminate", *campaign_files, "--out", str(out),
                         "--orders", "22221,33331"]) == 0
        report = read_report(tmp_path / "report.json")
        columns = cli._REPORT_CSV_COLUMNS.split(",")
        header, *rows = (line.split(",") for line in
                         (tmp_path / "report.csv").read_text().splitlines())
        assert header == columns
        assert len(rows) == 2 * len(report["datasets"]) == 4
        best = {ds["label"]: ds["best"] for ds in report["datasets"]}
        flags = {"best_ig": "information_gain", "best_naic": "naic",
                 "best_bic": "bic", "best_mdl": "mdl"}
        for row in rows:
            assert len(row) == len(columns)
            cells = dict(zip(columns, row))
            for column, key in flags.items():
                is_best = best[cells["setpoint"]][key] == cells["order"]
                assert cells[column] == ("1" if is_best else "")

    def test_shipped_report_sums_each_orders_channels(self, tmp_path):
        # a model scores y + u exactly; a criterion at -inf on either channel is null
        configs = Path(__file__).resolve().parent.parent / "configs"
        assert cli.main(["simulate", "--config", str(configs / "twin_default.ini"),
                         "--params", str(configs / "peltier_matched.ini"),
                         "--out-dir", str(tmp_path), "--seed", "0"]) == 0
        assert cli.main(["discriminate", *map(str, sorted(tmp_path.glob("dataset_*.csv"))),
                         "--out", str(tmp_path / "report")]) == 0
        report = read_report(tmp_path / "report.json")
        rows = [row for ds in report["datasets"] for row in ds["orders"]]
        assert len(rows) == 4 * 4
        for row in rows:
            y, u = row["y"], row["u"]
            assert row["ig_total"] == y["gain"] + u["gain"]
            assert row["mdl_total"] == y["mdl"] + u["mdl"]
            for key in ("naic", "bic"):
                expected = None if None in (y[key], u[key]) else y[key] + u[key]
                assert row[f"{key}_total"] == expected

    def test_single_dataset_omits_nugap_with_note(self, tmp_path, campaign_files):
        out = tmp_path / "single"
        code = cli.main(
            [
                "discriminate",
                campaign_files[0],
                "--out", str(out),
                "--orders", "22221,33331",
            ]
        )
        assert code == 0
        report = read_report(tmp_path / "single.json")
        assert report["nugap"] is None
        assert ">=2" in report["nugap_note"]

    def test_failing_nugap_pair_note_names_the_dataset(self, campaign_files, monkeypatch):
        identify = sysid.identify_family

        def integrator_on_set_1(dataset, orders, seed):
            family = identify(dataset, orders, seed)
            if dataset.label != "set_1":
                return family
            fit = family.fits[("22221", "y")]
            integrator = replace(fit.model, f=[1.0, -1.0])
            fits = {**family.fits, ("22221", "y"): replace(fit, model=integrator)}
            return replace(family, fits=fits)

        monkeypatch.setattr(sysid, "identify_family", integrator_on_set_1)
        report = cli.discriminate_datasets(
            [read_csv(path) for path in campaign_files], cli.DiscriminateOptions(orders=("22221",))
        )
        assert report["nugap"] is None
        assert report["nugap_note"].startswith(
            "nu-gap selection failed: model 'set_1' has a pole within"
        )

    def test_nugap_pair_at_different_sample_times_fails_with_a_note(self, campaign_files):
        # each gap model carries its own dataset's sample time, so the pair is refused
        one_s, other = (read_csv(path) for path in campaign_files)
        half_s = TimeSeriesDataset(0.5 * other.t, other.r, other.u, other.y, label=other.label)
        report = cli.discriminate_datasets(
            [one_s, half_s], cli.DiscriminateOptions(orders=("22221",))
        )
        validate_report(report)
        assert [ds["sample_time"] for ds in report["datasets"]] == [1.0, 0.5]
        note = "nu-gap selection failed: models must share a sample time (1.0 != 0.5)"
        assert report["nugap"] is None
        assert report["nugap_note"] == note
        assert report["errors"] == [note]

    def test_nugap_pair_with_a_clock_that_starts_late_is_selected(self, tmp_path):
        # t from 1000 s in steps of 0.1 s reads a first step of 0.10000000000002274 s:
        # the same sample time by the rule that accepted the record
        a, k, c = MATCHED_SETS[70.0]
        params = PeltierParams(alpha=a, r_ohm=3.3, k_cond=k, c_heat=c)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, start, seed in zip(paths, (0.0, 1000.0), (0, 1)):
            ds = simulate_closed_loop(params, SimConfig(
                setpoint=70.0, duration=60.0, sample_time=0.1,
                sensor=SensorConfig(noise_std=0.05, seed=seed),
            ))
            write_csv(TimeSeriesDataset(ds.t + start, ds.r, ds.u, ds.y), path)
        out = tmp_path / "r"
        argv = ["discriminate", *map(str, paths), "--out", str(out), "--orders", "22221"]
        assert cli.main(argv) == 0
        report = read_report(tmp_path / "r.json")
        assert [ds["sample_time"] for ds in report["datasets"]] == [0.1, 0.10000000000002274]
        assert report["nugap"] is not None
        assert report["errors"] == []

    def test_nugap_pair_at_a_shared_half_second_is_selected(self):
        params = {
            sp: PeltierParams(alpha=a, r_ohm=3.3, k_cond=k, c_heat=c)
            for sp, (a, k, c) in MATCHED_SETS.items() if sp in (50.0, 70.0)
        }
        base = SimConfig(
            setpoint=50.0, duration=300.0, sample_time=0.5, sensor=SensorConfig(noise_std=0.05)
        )
        datasets = list(generate_campaign(params, base, seed=0))
        report = cli.discriminate_datasets(datasets, cli.DiscriminateOptions(orders=("22221",)))
        validate_report(report)
        assert [ds["sample_time"] for ds in report["datasets"]] == [0.5, 0.5]
        assert report["nugap"] is not None
        assert report["nugap"]["labels"] == [ds.label for ds in datasets]
        assert report["errors"] == []

    def test_order_with_one_failed_channel_is_not_scored(
        self, tmp_path, campaign_files, monkeypatch
    ):
        # 33331's y fit succeeds and its u fit fails: only 22221 has both channels
        controls = [read_csv(path).u for path in campaign_files]
        fit = sysid.fit_output_error

        def u_of_33331_fails(input, output, order, seed=0, warm_start=None):
            if order.label == "33331" and any(np.array_equal(output, u) for u in controls):
                raise sysid.FitFailureError("injected")
            return fit(input, output, order, seed, warm_start)

        monkeypatch.setattr(sysid, "fit_output_error", u_of_33331_fails)
        out = tmp_path / "report"
        assert cli.main(["discriminate", *campaign_files, "--out", str(out),
                         "--orders", "22221,33331"]) == 0
        report = read_report(tmp_path / "report.json")
        for ds in report["datasets"]:
            assert [row["order"] for row in ds["orders"]] == ["22221"]
            assert any(err.startswith("order 33331 channel u: ") for err in ds["errors"])
            assert set(ds["best"].values()) == {"22221"}
            assert ds["nugap_model_order"] == "22221"
        assert report["nugap"] is not None

    def test_unlabelled_datasets_give_empty_nugap_labels(self, campaign_files):
        # a library caller's datasets need no label; none is made up for them
        datasets = [
            TimeSeriesDataset(ds.t, ds.r, ds.u, ds.y)
            for ds in (read_csv(path) for path in campaign_files)
        ]
        report = cli.discriminate_datasets(datasets, cli.DiscriminateOptions(orders=("22221",)))
        validate_report(report)
        assert report["nugap"]["labels"] == ["", ""]
        assert report["nugap"]["winner_label"] == ""

    def test_non_finite_report_number_raises_and_writes_nothing(
        self, tmp_path, campaign_files, monkeypatch
    ):
        # a NaN would pass the schema's "number" and be written as the
        # non-JSON token NaN; it is a bug, so it propagates out of main
        monkeypatch.setattr(cli, "_num", lambda value: float("nan"))
        with pytest.raises(ValueError, match="Out of range float values"):
            cli.main(
                ["discriminate", *campaign_files, "--out", str(tmp_path / "r"), "--orders", "22221"]
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set_0.csv", "set_1.csv"]

    def test_precision_flag_moves_only_coding_scores(self, tmp_path, campaign_files):
        reports = {}
        for precision in (1, 3):
            out = tmp_path / f"p{precision}"
            assert cli.main(
                [
                    "discriminate",
                    campaign_files[0],
                    "--out", str(out),
                    "--orders", "22221",
                    "--precision", str(precision),
                ]
            ) == 0
            reports[precision] = read_report(tmp_path / f"p{precision}.json")
        row1 = reports[1]["datasets"][0]["orders"][0]
        row3 = reports[3]["datasets"][0]["orders"][0]
        assert row1["y"]["l_trivial"] != row3["y"]["l_trivial"]
        assert row1["ig_total"] != row3["ig_total"]
        assert row1["naic_total"] == row3["naic_total"]
        assert row1["bic_total"] == row3["bic_total"]
        assert row1["mdl_total"] == row3["mdl_total"]

    def test_rerun_is_byte_identical(self, tmp_path, campaign_files):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli.main(
                [
                    "discriminate",
                    *campaign_files,
                    "--out", str(out),
                    "--orders", "22221,33331",
                    "--seed", "5",
                ]
            ) == 0
            read_report(tmp_path / f"{name}.json")
            blobs.append(
                (tmp_path / f"{name}.json").read_bytes()
                + (tmp_path / f"{name}.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_prediction_residual_source(self, tmp_path, campaign_files):
        reports = {}
        for source in ("sim", "pred"):
            out = tmp_path / source
            assert cli.main(
                [
                    "discriminate",
                    campaign_files[0],
                    "--out", str(out),
                    "--orders", "22221",
                    "--residuals", source,
                ]
            ) == 0
            reports[source] = read_report(tmp_path / f"{source}.json")
        row_sim = reports["sim"]["datasets"][0]["orders"][0]
        row_pred = reports["pred"]["datasets"][0]["orders"][0]
        assert reports["pred"]["config"]["residual_source"] == "pred"
        # coding scores always use the simulation pathway; the criteria move
        assert row_sim["ig_total"] == row_pred["ig_total"]
        assert row_sim["bic_total"] != row_pred["bic_total"]

    @staticmethod
    def _short_matched_records():
        # 60 samples each: enough for 15551's B/F (10 * (nb + nf)), not for its
        # noise model C/D (10 * (nc + nd))
        a, k, c = MATCHED_SETS[70.0]
        params = PeltierParams(alpha=a, r_ohm=3.3, k_cond=k, c_heat=c)
        return [
            simulate_closed_loop(params, SimConfig(
                setpoint=sp, duration=60.0, sensor=SensorConfig(noise_std=0.05, seed=seed),
                label=f"{sp:g}",
            ))
            for sp, seed in ((50.0, 0), (70.0, 1))
        ]

    def test_simulation_scores_need_no_noise_model(self):
        report = cli.discriminate_datasets(
            self._short_matched_records(), cli.DiscriminateOptions(orders=("15551",))
        )
        validate_report(report)
        assert [ds["label"] for ds in report["datasets"]] == ["50", "70"]
        assert [ds["errors"] for ds in report["datasets"]] == [[], []]
        assert report["errors"] == []

    def test_every_fit_reaches_the_nugap(self):
        # the 70 degC u-channel fit ends next to the unit circle; the nu-gap
        # refuses no pole that the fitter's search admits
        report = cli.discriminate_datasets(
            self._short_matched_records(), cli.DiscriminateOptions(orders=("22221",))
        )
        validate_report(report)
        assert report["nugap"] is not None
        assert report["errors"] == []

    def test_noise_model_that_needs_more_data_drops_its_order_under_pred(self):
        need = "ValueError: need at least 100 residuals for nc=5, nd=5, got 60"
        report = cli.discriminate_datasets(
            self._short_matched_records(),
            cli.DiscriminateOptions(orders=("15551",), residual_source="pred"),
        )
        assert report["datasets"] == []
        assert report["errors"] == [
            f"dataset {label!r}: no order was identified; first error: order 15551 channel y: "
            f"{need}"
            for label in ("50", "70")
        ]
        # the errors keep the order of the fits, 15551 before 55551, whichever stage failed
        report = cli.discriminate_datasets(
            self._short_matched_records(),
            cli.DiscriminateOptions(orders=("22221", "33331", "15551", "55551"),
                                    residual_source="pred"),
        )
        too_short = "ValueError: need at least 100 samples for orders nb=5, nf=5, got 60"
        for ds in report["datasets"]:
            assert [row["order"] for row in ds["orders"]] == ["22221", "33331"]
            assert ds["errors"] == [
                f"order 15551 channel y: {need}", f"order 15551 channel u: {need}",
                f"order 55551 channel y: {too_short}", f"order 55551 channel u: {too_short}",
            ]

    def test_default_discriminate_fits_no_noise_model(self, tmp_path, campaign_files, monkeypatch):
        calls = []
        for name in ("fit_noise_model", "one_step_residuals"):
            def counted(*args, _name=name, _fn=getattr(sysid, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(sysid, name, counted)
        assert cli.main(["discriminate", *campaign_files, "--out", str(tmp_path / "sim")]) == 0
        assert calls == []
        argv = ["discriminate", *campaign_files, "--out", str(tmp_path / "pred"),
                "--orders", "22221", "--residuals", "pred"]
        assert cli.main(argv) == 0
        # one noise model per dataset and channel
        assert calls == ["fit_noise_model", "one_step_residuals"] * 4

    def test_nan_dataset_is_usage_error(self, tmp_path, capsys):
        path = make_dataset(tmp_path / "nan.csv", seed=0)
        lines = path.read_text().splitlines()
        lines[10] = ",".join(lines[10].split(",")[:3] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["discriminate", str(path), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "NaN or inf" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "t,r,u,y\n"], ids=["zero_bytes", "header_only"])
    def test_empty_dataset_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        out = tmp_path / "r"
        code = cli.main(["discriminate", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset is empty" in err
        assert "Traceback" not in err
        assert not os.path.exists(f"{out}.json")

    @pytest.mark.parametrize("command", ["discriminate", "match"])
    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "dataset is empty"),
            (b"t,r,u\n0,1,2\n1,1,2\n", "CSV must have columns t,r,u,y"),
            (b"t,r,u,y\n0,1,2,3\n1,1,2,\xff\n", "'utf-8' codec can't decode"),
            (b"t,r,u,y\n0,1,2,3\n1,1,2,nan\n", "column y holds NaN or inf values"),
        ],
        ids=["empty", "missing_column", "non_utf8", "nan"],
    )
    def test_unreadable_dataset_names_its_file_once(
        self, tmp_path, capsys, command, content, message
    ):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        out = tmp_path / "r.json"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.count(str(path)) == 1
        assert list(tmp_path.iterdir()) == [path]

    def test_dataset_too_short_for_every_order_is_an_error_not_a_row(self, tmp_path, capsys):
        # 30 samples are too few for 22221 (needs 40), so no order is identified
        path = make_dataset(tmp_path / "tiny.csv", seed=3, n=30)
        code = cli.main(["discriminate", str(path), "--out", str(tmp_path / "r")])
        assert code == 1
        report = read_report(tmp_path / "r.json")
        assert report["datasets"] == []
        assert len(report["errors"]) == 1
        assert "'tiny': no order was identified; first error: order 22221" in report["errors"][0]

    def test_per_order_failures_are_isolated(self, tmp_path):
        # 60 samples satisfy order 2 (needs 40) but not order 5 (needs 100)
        path = make_dataset(tmp_path / "short.csv", seed=3, n=60)
        out = tmp_path / "short_report"
        code = cli.main(
            [
                "discriminate", str(path),
                "--out", str(out),
                "--orders", "22221,55551",
            ]
        )
        assert code == 0
        report = read_report(tmp_path / "short_report.json")
        ds = report["datasets"][0]
        assert [row["order"] for row in ds["orders"]] == ["22221"]
        assert any("55551" in msg for msg in ds["errors"])

    def test_all_datasets_failing_is_computational_error(
        self, tmp_path, campaign_files, monkeypatch
    ):
        def boom(dataset, opts):
            raise sysid.FitFailureError("synthetic failure")

        monkeypatch.setattr(cli, "_score_dataset", boom)
        code = cli.main(
            ["discriminate", campaign_files[0], "--out", str(tmp_path / "r")]
        )
        assert code == 1
        report = read_report(tmp_path / "r.json")
        assert report["datasets"] == []
        assert any("synthetic failure" in msg for msg in report["errors"])

    @pytest.mark.parametrize("module, name", [(sysid, "fit_output_error"),
                                              (criteria, "simo_criteria")],
                             ids=["fit_output_error", "simo_criteria"])
    def test_bug_in_fitting_or_scoring_is_a_traceback(
        self, tmp_path, campaign_files, monkeypatch, module, name
    ):
        # a TypeError is none of lti.FIT_FAILURES: no report row hides it
        def bug(*args):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(module, name, bug)
        argv = ["discriminate", *campaign_files, "--out", str(tmp_path / "r"), "--orders", "22221"]
        with pytest.raises(TypeError, match="synthetic bug"):
            cli.main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set_0.csv", "set_1.csv"]

    def test_unreadable_dataset_is_usage_error(self, tmp_path):
        code = cli.main(
            ["discriminate", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "r")]
        )
        assert code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, campaign_files, capsys):
        out = tmp_path / "r"
        code = cli.main(
            ["discriminate", *campaign_files, "--out", str(out), "--seed", "-1"]
        )
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(f"{out}.json")

    def test_missing_out_dir_is_usage_error_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        out = tmp_path / "missing" / "r.json"
        code = cli.main(["discriminate", *campaign_files, "--out", str(out)])
        assert code == 2
        assert "error: output directory" in capsys.readouterr().err

    def test_negative_precision_is_rejected_before_any_work(
        self, tmp_path, campaign_files, capsys
    ):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            cli.DiscriminateOptions(precision=-1)
        code = cli.main(
            ["discriminate", *campaign_files, "--out", str(tmp_path / "r"), "--precision", "-1"]
        )
        assert code == 2
        assert "error: precision must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("precision", ["19", "400"])
    def test_precision_above_token_range_is_rejected_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys, precision
    ):
        monkeypatch.setattr(
            sysid, "identify_family", lambda *a: pytest.fail("identification ran")
        )
        out = tmp_path / "r"
        code = cli.main(
            ["discriminate", *campaign_files, "--out", str(out), "--precision", precision]
        )
        assert code == 2
        assert "error: precision must be <= 18" in capsys.readouterr().err
        assert list(tmp_path.glob("r*")) == []

    @pytest.mark.parametrize(
        "flag, value", [("--nugap-grid", "2048"), ("--naic-form", "normalized")]
    )
    def test_removed_option_is_usage_error_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys, flag, value
    ):
        # the nu-gap grid is nugap.DEFAULT_GRID_SIZE and nAIC has one form
        monkeypatch.setattr(
            sysid, "identify_family", lambda *a: pytest.fail("identification ran")
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["discriminate", *campaign_files, "--out", str(tmp_path / "r"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.glob("r*")) == []

    def test_out_naming_a_directory_is_usage_error_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        out = tmp_path / "r.json"
        out.mkdir()
        code = cli.main(["discriminate", *campaign_files, "--out", str(out)])
        assert code == 2
        assert f"error: output path {str(out)!r} is a directory" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_is_usage_error_and_replaces_neither_file(
        self, tmp_path, campaign_files, capsys
    ):
        (tmp_path / "r.json").write_text("old json")
        (tmp_path / "r.csv").write_text("old csv")
        (tmp_path / "r.csv.tmp").mkdir()
        out = str(tmp_path / "r")
        code = cli.main(["discriminate", *campaign_files, "--out", out, "--orders", "22221"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "r.csv.tmp" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.glob("r*")) == ["r.csv", "r.csv.tmp", "r.json"]
        assert (tmp_path / "r.json").read_text() == "old json"
        assert (tmp_path / "r.csv").read_text() == "old csv"

    # --out set_0 writes the report CSV over set_0.csv, and --out r through r.csv.tmp
    @pytest.mark.parametrize("dataset, out", [("set_0.csv", "set_0"), ("r.csv.tmp", "r")])
    def test_out_naming_an_input_is_usage_error_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys, dataset, out
    ):
        data = tmp_path / dataset
        os.replace(campaign_files[0], data)
        before = data.read_bytes()
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        code = cli.main(
            ["discriminate", str(data), campaign_files[1], "--out", str(tmp_path / out)]
        )
        assert code == 2
        assert f"error: output path {str(data)!r} is an input file" in capsys.readouterr().err
        assert data.read_bytes() == before
        assert list(tmp_path.glob(f"{out}.json*")) == []

    def test_empty_out_is_usage_error_before_any_work(
        self, tmp_path, campaign_files, monkeypatch, capsys
    ):
        # '' would name the hidden files .json and .csv in the working directory
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        before = set(tmp_path.iterdir())
        code = cli.main(["discriminate", *campaign_files, "--out", ""])
        assert code == 2
        assert "error: output path '' names no file" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    # at 1e307 the scaled token 1e2 * |u| is inf, which once ended in an OverflowError
    @pytest.mark.parametrize("scale, precision", [(1e150, "2"), (1e3, "18"), (1e307, "2")])
    def test_data_the_codec_cannot_price_is_usage_error_before_any_fit(
        self, tmp_path, campaign_files, monkeypatch, capsys, scale, precision
    ):
        ds = read_csv(campaign_files[0])
        huge = tmp_path / "huge.csv"
        write_csv(TimeSeriesDataset(ds.t, ds.r, ds.u * scale, ds.y * scale), huge)
        monkeypatch.setattr(
            sysid, "identify_family", lambda *a: pytest.fail("identification ran")
        )
        out = tmp_path / "r"
        code = cli.main(["discriminate", str(huge), "--out", str(out), "--precision", precision])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {huge}: column u cannot be priced: value ")
        assert "overflows the 63-bit token range" in err
        assert list(tmp_path.glob("r*")) == []

    def test_data_the_codec_cannot_price_is_reported_beside_a_good_dataset(
        self, tmp_path, campaign_files
    ):
        ds = read_csv(campaign_files[0])
        huge = tmp_path / "huge.csv"
        write_csv(TimeSeriesDataset(ds.t, ds.r, ds.u, ds.y * 1e150), huge)
        out = tmp_path / "r"
        code = cli.main(
            ["discriminate", str(huge), campaign_files[1], "--out", str(out), "--orders", "22221"]
        )
        assert code == 0
        report = read_report(tmp_path / "r.json")
        assert [d["label"] for d in report["datasets"]] == ["set_1"]
        [error] = report["errors"]
        assert error.startswith(f"{huge}: column y cannot be priced: value ")

    def test_repeated_dataset_label_is_usage_error_before_any_fit(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            sysid, "identify_family", lambda *a: pytest.fail("identification ran")
        )
        paths = []
        for i, sub in enumerate(("a", "b")):
            (tmp_path / sub).mkdir()
            paths.append(str(make_dataset(tmp_path / sub / "dataset_30.csv", seed=i)))
        out = tmp_path / "r"
        code = cli.main(["discriminate", *paths, "--out", str(out)])
        assert code == 2
        assert "error: dataset label 'dataset_30' is given more than once" in (
            capsys.readouterr().err
        )
        assert not os.path.exists(f"{out}.json")

    def test_unknown_naic_form_or_residual_source_rejected_before_any_work(
        self, campaign_files, monkeypatch
    ):
        monkeypatch.setattr(
            sysid, "identify_family", lambda *a: pytest.fail("identification ran")
        )
        with pytest.raises(ValueError, match="bogus"):
            cli.discriminate_datasets(
                [read_csv(campaign_files[0])], cli.DiscriminateOptions(residual_source="bogus")
            )
        # nAIC has one form, so any --naic-form is an unknown option
        # (test_removed_option_is_usage_error_before_any_work)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be >= 0"),
            ("seed", 1.5, "seed must be >= 0 and an integer"),
            ("seed", np.int64(3), "seed must be >= 0 and an integer"),
            ("seed", False, "seed must be >= 0 and an integer"),
            ("precision", 2.5, "precision must be >= 0 and an integer"),
            ("precision", np.int64(2), "precision must be >= 0 and an integer"),
            ("precision", True, "precision must be >= 0 and an integer"),
            ("orders", ("2222x",), "order label must be 5 digits"),
            ("orders", (), "at least one order is needed"),
        ],
        ids=["seed", "float_seed", "numpy_seed", "bool_seed", "float_precision",
             "numpy_precision", "bool_precision", "orders", "no_orders"],
    )
    def test_bad_option_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            cli.DiscriminateOptions(**{field: value})

    def test_exactly_fitted_channel_keeps_its_parameter_count(self):
        # least squares recovers B = 0 exactly for a y that never moves, so the
        # y fit reaches exactly zero residuals
        n = 160
        t = np.arange(n, dtype=float)
        r = np.where((t // 20) % 2 == 0, 1.0, 0.0)
        y = np.zeros(n)
        u = y + 0.05 * np.random.default_rng(0).standard_normal(n)
        report = cli.discriminate_datasets(
            [TimeSeriesDataset(t, r, u, y, label="exact")],
            cli.DiscriminateOptions(orders=("22221",)),
        )
        row = report["datasets"][0]["orders"][0]
        assert row["y"]["zero_loss"]
        # nb + nc + nd + nf, for the u channel's penalties as well
        assert row["n_params"] == 8
        assert row["u"]["bic"] == criteria.bic(row["u"]["loss"], 8, n)

    def test_bad_order_label_is_usage_error(self, tmp_path, campaign_files):
        code = cli.main(
            [
                "discriminate",
                campaign_files[0],
                "--out", str(tmp_path / "r"),
                "--orders", "22",
            ]
        )
        assert code == 2

    def test_repeated_order_label_is_usage_error(self, tmp_path, campaign_files, capsys):
        out = tmp_path / "r"
        code = cli.main(
            [
                "discriminate",
                campaign_files[0],
                "--out", str(out),
                "--orders", "22221,33331,22221",
            ]
        )
        assert code == 2
        assert "error: order 22221 is listed more than once" in capsys.readouterr().err
        assert not os.path.exists(f"{out}.json")


class TestMatchCommand:
    def _dataset(self, tmp_path):
        from twindisc.twin import PeltierParams, SensorConfig, SimConfig, simulate_closed_loop

        truth = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1)
        cfg = SimConfig(setpoint=70.0, duration=120.0, sensor=SensorConfig())
        ds = simulate_closed_loop(truth, cfg)
        path = tmp_path / "seventy.csv"
        write_csv(ds, path)
        return str(path)

    def test_match_with_preset(self, tmp_path):
        path = self._dataset(tmp_path)
        out = tmp_path / "match.json"
        code = cli.main(["match", path, "--initial", "experience", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["r_ohm"] == 3.3
        assert payload["sse"] >= 0.0
        assert payload["dataset"] == "seventy"

    def test_params_paste_into_a_parameter_file(self, tmp_path):
        # the JSON params use the parameter file's keys, so a result written
        # as a setpoint section loads back to the same parameters
        out = tmp_path / "match.json"
        assert cli.main(["match", self._dataset(tmp_path), "--out", str(out)]) == 0
        fitted = json.loads(out.read_text())["params"]
        params = tmp_path / "params.ini"
        params.write_text("[peltier.70]\n" + "".join(f"{k} = {v!r}\n" for k, v in fitted.items()))
        assert configio.load_params_file(params) == {70.0: PeltierParams(
            alpha=fitted["alpha_v_per_k"], r_ohm=fitted["r_ohm"],
            k_cond=fitted["k_w_per_k"], c_heat=fitted["c_j_per_k"],
        )}

    def test_channels_pass_straight_to_the_problem(self, tmp_path, monkeypatch, capsys):
        # --channels takes its choices from matching.CHANNELS, and the problem
        # gets the choice as given
        path = self._dataset(tmp_path)
        seen = []

        def capture(problem):
            seen.append(problem.channels)
            raise matching.MatchFailureError("stopped")

        monkeypatch.setattr(cli.matching, "match_parameters", capture)
        out = str(tmp_path / "m.json")
        for channels in matching.CHANNELS:
            assert cli.main(["match", path, "--channels", channels, "--out", out]) == 1
        assert seen == list(matching.CHANNELS)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["match", path, "--channels", "u", "--out", out])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'u'" in err and "yu" in err

    def test_unknown_preset_lists_options(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        code = cli.main(["match", path, "--initial", "folklore", "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        for preset in ("datasheet", "experience", "measurement"):
            assert preset in err

    def test_out_of_bounds_explicit_guess_rejected(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        code = cli.main(
            ["match", path, "--initial", "0.9,0.3,10.0", "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert (
            "error: initial guess must lie within the box alpha in [0.005, 0.2] V/K, "
            "K in [0.05, 1] W/K, C in [2, 80] J/K"
        ) in capsys.readouterr().err

    def test_default_controller_note_only_without_config(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulation]\nsetpoints = 70\nduration_s = 120\n")
        out = str(tmp_path / "m.json")
        assert cli.main(["match", path, "--initial", "datasheet", "--out", out]) == 0
        err = capsys.readouterr().err
        assert "kp=2 ki=0.06 kd=0" in err
        assert "--config" in err
        assert cli.main(
            ["match", path, "--initial", "datasheet", "--config", str(cfg), "--out", out]
        ) == 0
        assert capsys.readouterr().err == ""

    def test_nan_dataset_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        lines = open(self._dataset(tmp_path)).read().splitlines()
        lines[10] = ",".join(lines[10].split(",")[:3] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["match", str(path), "--initial", "datasheet", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "NaN or inf" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_missing_out_dir_is_usage_error_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._dataset(tmp_path)
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        out = tmp_path / "missing" / "m.json"
        code = cli.main(["match", path, "--initial", "datasheet", "--out", str(out)])
        assert code == 2
        assert "error: output directory" in capsys.readouterr().err

    def test_out_naming_a_directory_is_usage_error_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._dataset(tmp_path)
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        out = tmp_path / "taken"
        out.mkdir()
        code = cli.main(["match", path, "--initial", "datasheet", "--out", str(out)])
        assert code == 2
        assert f"error: output path {str(out)!r} is a directory" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_is_usage_error(self, tmp_path, capsys):
        path = self._dataset(tmp_path)
        out = tmp_path / "m.json"
        (tmp_path / "m.json.tmp").mkdir()
        code = cli.main(["match", path, "--initial", "datasheet", "--out", str(out)])
        assert code == 2
        assert "m.json.tmp" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("m.json*")) == ["m.json.tmp"]

    def test_out_naming_the_dataset_is_usage_error_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self._dataset(tmp_path)
        before = Path(path).read_bytes()
        monkeypatch.setattr(cli.twin, "read_csv", lambda path: pytest.fail("data was read"))
        code = cli.main(["match", path, "--initial", "datasheet", "--out", path])
        assert code == 2
        assert f"error: output path {path!r} is an input file" in capsys.readouterr().err
        assert Path(path).read_bytes() == before

    @pytest.mark.parametrize("with_config", [False, True], ids=["preset", "config"])
    def test_dataset_over_the_sample_bound_is_usage_error(
        self, tmp_path, monkeypatch, capsys, with_config
    ):
        # with --config the reference length sets the horizon, so the bound
        # must hold for the dataset itself and not only for a built SimConfig
        path = self._dataset(tmp_path)  # 120 samples
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulation]\nsetpoints = 70\nduration_s = 60\n")
        monkeypatch.setattr(cli.twin, "MAX_SAMPLES", 100)
        monkeypatch.setattr(
            cli.matching, "simulate_closed_loop", lambda *a, **k: pytest.fail("simulated")
        )
        out = tmp_path / "m.json"
        flags = ["--config", str(cfg)] if with_config else []
        code = cli.main(["match", path, "--initial", "datasheet", *flags, "--out", str(out)])
        assert code == 2
        assert "at most 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_config", [False, True], ids=["preset", "config"])
    def test_dataset_under_the_sample_floor_is_usage_error(
        self, tmp_path, monkeypatch, capsys, with_config
    ):
        # one length rule, whether or not --config sets the twin's horizon
        lines = open(self._dataset(tmp_path)).read().splitlines()
        path = tmp_path / "short.csv"
        path.write_text("\n".join(lines[:31]) + "\n")  # the header and 30 samples
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[simulation]\nsetpoints = 70\nduration_s = 120\n")
        monkeypatch.setattr(
            cli.matching, "simulate_closed_loop", lambda *a, **k: pytest.fail("simulated")
        )
        out = tmp_path / "m.json"
        flags = ["--config", str(cfg)] if with_config else []
        code = cli.main(["match", str(path), "--initial", "datasheet", *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "dataset has 30 samples, matching needs at least 50" in err
        assert "duration" not in err
        assert not out.exists()

    def test_fifty_samples_at_an_inexact_step_pass_the_input_phase(self, tmp_path, capsys):
        # without --config the twin's horizon is 50 * 0.17 s, whose ratio to 0.17 s is
        # just short of 50 in floating point
        from twindisc.twin import SensorConfig, SimConfig, simulate_closed_loop

        truth = PeltierParams(alpha=0.0211, r_ohm=3.3, k_cond=0.286, c_heat=11.1)
        cfg = SimConfig(setpoint=70.0, duration=51 * 0.17, sample_time=0.17, sensor=SensorConfig())
        ds = simulate_closed_loop(truth, cfg)
        path = tmp_path / "fifty.csv"
        write_csv(TimeSeriesDataset(ds.t[:50], ds.r[:50], ds.u[:50], ds.y[:50]), path)
        out = tmp_path / "m.json"
        code = cli.main(["match", str(path), "--initial", "datasheet", "--out", str(out)])
        assert code != 2, capsys.readouterr().err

    def test_infinite_sse_is_computational_error(self, tmp_path, capsys):
        # finite samples whose squared errors overflow a float
        n = 200
        ds = TimeSeriesDataset(np.arange(n, dtype=float), np.full(n, 70.0),
                               np.full(n, 1e200), np.full(n, 1e200))
        path = tmp_path / "huge.csv"
        write_csv(ds, path)
        out = tmp_path / "m.json"
        with np.errstate(over="ignore"):
            code = cli.main(["match", str(path), "--out", str(out)])
        assert code == 1
        assert "error: no start reached a finite SSE" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_sse_warns_nothing_before_its_error_line(self, tmp_path, capsys):
        # an overflowing cost is an outcome, not a numerical fault: no numpy
        # RuntimeWarning may precede the one error line
        n = 200
        ds = TimeSeriesDataset(np.arange(n, dtype=float), np.full(n, 70.0),
                               np.full(n, 1e200), np.full(n, 1e200))
        path = tmp_path / "huge.csv"
        write_csv(ds, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["match", str(path), "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: no start reached a finite SSE (the best is inf)"
        ]

    @staticmethod
    def _euler_case(tmp_path, capsys, duration_s):
        """A record at 60 s sampling, simulated at a stable step, and the
        config that matches it with one Euler substep per sample."""
        (tmp_path / "params.ini").write_text(
            "[peltier.70]\nr_ohm = 3.3\nalpha_v_per_k = 0.0211\n"
            "k_w_per_k = 0.286\nc_j_per_k = 11.1\n"
        )
        sim = f"[simulation]\nsetpoints = 70\nduration_s = {duration_s}\nsample_time_s = 60\n"
        sensor = "[sensor]\nnoise_std_c = 0.05\n"
        (tmp_path / "sim.ini").write_text(sim + "ode_substeps = 600\n" + sensor)
        (tmp_path / "euler.ini").write_text(sim + "ode_substeps = 1\n" + sensor)
        data = tmp_path / "data"
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.ini"), "--params",
                         str(tmp_path / "params.ini"), "--out-dir", str(data), "--seed", "1"]) == 0
        capsys.readouterr()
        return data / "dataset_70.csv", tmp_path / "euler.ini"

    # every start's 60 s Euler step is unstable, so none is a candidate
    EULER_ERROR = (
        "error: every multistart diverged; at the initial guess, the Euler step of 60 s "
        "is unstable for these parameters: ode_substeps = 1, the smallest stable is 5\n"
    )

    def test_unstable_euler_twin_is_one_error_line(self, tmp_path, capsys):
        dataset, euler = self._euler_case(tmp_path, capsys, 36000)
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["match", str(dataset), "--config", str(euler), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == self.EULER_ERROR
        assert not out.exists()

    def test_short_unstable_euler_record_is_one_error_line(self, tmp_path, capsys):
        # 50 samples are too few for the unstable twin to overflow, so without
        # the step check this match converged to an SSE of 6e15
        dataset, euler = self._euler_case(tmp_path, capsys, 3000)
        out = tmp_path / "m.json"
        code = cli.main(["match", str(dataset), "--config", str(euler), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == self.EULER_ERROR
        assert not out.exists()
        # simulate with that config writes nothing either
        out_dir = tmp_path / "euler_out"
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("old")
        code = cli.main(["simulate", "--config", str(euler), "--params",
                         str(tmp_path / "params.ini"), "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the Euler step of 60 s is unstable for these parameters: "
            "ode_substeps = 1, the smallest stable is 5\n"
        )
        assert os.listdir(out_dir) == ["keep.txt"]
        assert (out_dir / "keep.txt").read_text() == "old"

    def test_initial_parsing(self):
        params = cli._parse_initial("0.05,0.4,12.5")
        assert (params.alpha, params.k_cond, params.c_heat) == (0.05, 0.4, 12.5)
        assert params.r_ohm == 3.3
        preset = cli._parse_initial("datasheet")
        assert preset.alpha == 0.053


@pytest.fixture()
def c10_campaign(tmp_path):
    (tmp_path / "sim.ini").write_text(
        "[simulation]\nsetpoints = 35, 45\nduration_s = 150\n"
        "[pid]\nkp = 8.0\nki = 0.0\n"
        "[sensor]\nnoise_std_c = 0.05\n"
    )
    (tmp_path / "params.ini").write_text(
        "[peltier]\nr_ohm = 3.3\nalpha_v_per_k = 0.05\n"
        "k_w_per_k = 0.3\nc_j_per_k = 15.0\n"
    )
    data = tmp_path / "data"
    assert cli.main(
        [
            "simulate",
            "--config", str(tmp_path / "sim.ini"),
            "--params", str(tmp_path / "params.ini"),
            "--out-dir", str(data),
            "--seed", "11",
        ]
    ) == 0
    return data


def assert_pinned(out, golden_name):
    """Each ``tests/golden/<golden_name>.*`` equals its namesake in the directory ``out``;
    to re-record, after the standing rule's comparison, run ``pytest tests/test_cli.py -k
    bytes_are_pinned --basetemp=PINS`` and copy ``PINS/*0/<golden_name>.*`` over them."""
    moved = [g.name for g in sorted(GOLDEN.glob(f"{golden_name}.*"))
             if (out / g.name).read_bytes() != g.read_bytes()]
    old, new = (json.loads((d / f"{golden_name}.json").read_bytes()) for d in (GOLDEN, out))
    assert not moved, f"{', '.join(moved)} differ: {json_delta(old, new)}"


# The c10 reports, recorded once the report's config lost its nu-gap grid and nAIC
# form entries, the only bytes that moved; any change to a fitted coefficient shows here.
@pytest.mark.parametrize("name, flags", [
    ("sim", ["--residuals", "sim"]),
    ("pred", ["--residuals", "pred", "--precision", "3"]),
], ids=["sim", "pred"])
def test_report_bytes_are_pinned(tmp_path, c10_campaign, name, flags):
    data = c10_campaign
    assert cli.main(
        [
            "discriminate",
            str(data / "dataset_35.csv"),
            str(data / "dataset_45.csv"),
            "--out", str(tmp_path / f"report_c10_{name}"),
            "--orders", "22221,33331",
            "--seed", "11",
            *flags,
        ]
    ) == 0
    read_report(tmp_path / f"report_c10_{name}.json")
    assert_pinned(tmp_path, f"report_c10_{name}")


def test_json_delta_names_each_change_of_the_golden_report():
    old = json.loads((GOLDEN / "report_c10_sim.json").read_text(encoding="utf-8"))
    assert json_delta(old, old) == (
        "no float moved; no string, integer, bool or null differs and no key was added or removed"
    )
    new = json.loads((GOLDEN / "report_c10_sim.json").read_text(encoding="utf-8"))
    new["datasets"][1]["orders"][0]["u"]["loss"] *= 1 + 1e-6
    assert new["datasets"][1]["best"]["naic"] == "22221"
    new["datasets"][1]["best"]["naic"] = "33331"
    del new["nugap"]["winner_label"]
    assert json_delta(old, new) == (
        "1 float moved (relative, largest first): datasets[1].orders[0].u.loss +1e-06; "
        'other values that differ: datasets[1].best.naic "22221" -> "33331", '
        "nugap.winner_label removed"
    )
    many = {"x": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0], "n": 3}
    moved = {"x": [v * (1 + i / 10) for i, v in enumerate(many["x"])], "n": 4, "k": None}
    assert json_delta(many, moved) == (
        "6 floats moved (relative, largest first): x[6] +0.6, x[5] +0.5, x[4] +0.4, "
        "x[3] +0.3, x[2] +0.2, and 1 more; other values that differ: n 3 -> 4, k added"
    )


def run_helpers_script(*args):
    """``python tests/helpers.py ARGS`` in a new interpreter on the checkout's sources."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "helpers.py"), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_json_delta_runs_as_a_script(tmp_path):
    old = GOLDEN / "report_c10_sim.json"
    report = json.loads(old.read_text(encoding="utf-8"))
    report["datasets"][0]["n_samples"] += 1
    new = tmp_path / "new.json"
    new.write_text(json.dumps(report), encoding="utf-8")
    proc = run_helpers_script(old, new)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json_delta(json.loads(old.read_bytes()), report) + "\n"
    assert "datasets[0].n_samples 150 -> 151" in proc.stdout


def test_tree_delta_names_each_file_that_differs(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    report = json.loads((GOLDEN / "report_c10_sim.json").read_text(encoding="utf-8"))
    csv = (GOLDEN / "report_c10_sim.csv").read_bytes()
    for root in (old, new):
        (root / "data").mkdir(parents=True)
        (root / "data" / "same.csv").write_bytes(csv)
    (old / "report.json").write_text(json.dumps(report), encoding="utf-8")
    report["datasets"][0]["orders"][0]["y"]["loss"] *= 1 + 1e-6
    (new / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (old / "report.csv").write_bytes(csv)
    (new / "report.csv").write_bytes(csv.replace(b"2", b"3", 1))
    (new / "extra.json").write_text("{}", encoding="utf-8")
    proc = run_helpers_script(old, new)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "data/same.csv: same",
        f"extra.json: only in {new}",
        "report.csv: bytes differ",
        "report.json: 1 float moved (relative, largest first): datasets[0].orders[0].y.loss "
        "+1e-06; no string, integer, bool or null differs and no key was added or removed",
    ]
    (new / "extra.json").unlink()
    (new / "report.csv").write_bytes(csv)
    (new / "report.json").write_bytes((old / "report.json").read_bytes())
    proc = run_helpers_script(old, new)
    assert proc.returncode == 0, proc.stdout


# ``match dataset_45.csv --initial datasheet`` on the same campaign, recorded
# once matching searched log-parameters with geodesic acceleration; against the
# linear forward-difference search the SSE moved by 3.2e-12 relative and the
# parameters by at most 1.4e-5.  All five starts end within 3e-14 of one cost,
# so the winner moved from start 1 to start 3.
def test_match_bytes_are_pinned(tmp_path, c10_campaign):
    golden_name = "match_c10_dataset_45_datasheet"
    assert cli.main(
        ["match", str(c10_campaign / "dataset_45.csv"), "--initial", "datasheet",
         "--out", str(tmp_path / f"{golden_name}.json")]
    ) == 0
    assert_pinned(tmp_path, golden_name)


# ``match dataset_35.csv --initial measurement --channels y --config sim.ini``
# on the same campaign, recorded once a y-only match ran on the y residuals
# alone, not on [y; 0 u]: the sums over n rows in place of 2n round apart, the
# SSE moved by -6.4e-12 relative, the parameters by at most 3.8e-6, and the
# winner from start 2 to start 4.  All five starts end within about 1e-11 of
# one cost.
def test_match_y_channel_with_config_bytes_are_pinned(tmp_path, c10_campaign):
    golden_name = "match_c10_dataset_35_measurement_y_config"
    assert cli.main(
        ["match", str(c10_campaign / "dataset_35.csv"), "--initial", "measurement",
         "--channels", "y", "--config", str(tmp_path / "sim.ini"),
         "--out", str(tmp_path / f"{golden_name}.json")]
    ) == 0
    assert_pinned(tmp_path, golden_name)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OpenBLAS's Prescott kernels and numpy's X86_V4 loops are x86 kernel choices",
)
def test_simulate_bits_do_not_depend_on_the_numeric_kernels(tmp_path):
    # the same run with OpenBLAS's Prescott kernels and, where the CPU has
    # them, numpy's AVX-512 loops off (numpy refuses to disable a baseline
    # feature): every output byte stays
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    configs = Path(__file__).resolve().parent.parent / "configs"
    argv = ["simulate", "--config", str(configs / "twin_default.ini"),
            "--params", str(configs / "peltier_matched.ini"), "--seed", "0", "--out-dir"]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    if "X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4"):
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "twindisc", *argv, str(tmp_path / "forced")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.main([*argv, str(tmp_path / "default")]) == 0
    names = sorted(os.listdir(tmp_path / "default"))
    assert names == ["dataset_30.csv", "dataset_50.csv", "dataset_70.csv", "dataset_90.csv",
                     "manifest.json"]
    assert sorted(os.listdir(tmp_path / "forced")) == names
    for name in names:
        forced, default = (tmp_path / run / name for run in ("forced", "default"))
        assert forced.read_bytes() == default.read_bytes(), name
