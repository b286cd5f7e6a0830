import ast
import os
import subprocess
import sys
from pathlib import Path

from twindisc import cli, lti, sysid

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
