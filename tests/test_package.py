import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from twindisc import cli, lti, nugap, sysid, twin

from helpers import random_simo

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh_python(*args):
    """Run a new interpreter on the checkout's sources; this one has them all loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point_help_exits_0():
    proc = fresh_python("-m", "twindisc", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: twindisc ")


def test_module_entry_point_usage_error_exits_2():
    proc = fresh_python("-m", "twindisc", "match")
    assert proc.returncode == 2
    assert "the following arguments are required: dataset" in proc.stderr


def test_package_import_loads_no_submodule():
    proc = fresh_python(
        "-c",
        "import sys, twindisc; "
        "print(sorted(m for m in sys.modules if m.startswith('twindisc.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_fit_failure_is_one_class_and_exits_1(tmp_path, monkeypatch):
    assert sysid.FitFailureError is lti.FitFailureError
    assert sysid.OrderSpec is lti.OrderSpec
    assert sysid.DEFAULT_ORDER_LABELS is lti.DEFAULT_ORDER_LABELS

    def fail(*args):
        raise sysid.FitFailureError("synthetic")

    monkeypatch.setattr(cli, "discriminate_datasets", fail)
    data = tmp_path / "d.csv"
    data.write_text("t,r,u,y\n0,0,0,0\n1,1,0.5,0.25\n")
    assert cli.main(["discriminate", str(data), "--out", str(tmp_path / "r")]) == 1


def test_src_catches_no_bare_exception():
    # an expected failure is named (lti.FIT_FAILURES, OSError, ...), so a bug leaves as a
    # traceback; BaseException handlers clean up and re-raise, or report to the parent
    found = []
    for path in sorted((Path(SRC) / "twindisc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(getattr(n, "id", None) == "Exception" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_results_hold_read_only_arrays(tmp_path):
    # the lti docstring's promise, at each producer that makes an array a result holds
    params = twin.PeltierParams(alpha=0.05, r_ohm=3.3, k_cond=0.3, c_heat=15.0)
    simulated = twin.simulate_closed_loop(params, twin.SimConfig(setpoint=50.0, duration=200.0))
    twin.write_csv(simulated, tmp_path / "d.csv")
    read = twin.read_csv(tmp_path / "d.csv")
    fit = sysid.fit_output_error(read.r, read.y, "22221")
    tf = fit.model.deterministic_tf(read.sample_time)
    other = random_simo(np.random.default_rng(0), sample_time=read.sample_time)
    matrix = nugap.select_nominal([lti.SimoModel(tf, tf), other], grid_size=128)[0]
    arrays = {
        **{f"simulated.{c}": getattr(simulated, c) for c in "truy"},
        **{f"read.{c}": getattr(read, c) for c in "truy"},
        "sim_residuals": fit.sim_residuals, "b": fit.model.b, "f": fit.model.f,
        "numerator": tf.numerator, "denominator": tf.denominator,
        "values": matrix.values, "cumulative": matrix.cumulative,
    }
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
