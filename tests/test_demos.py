"""Each narrative script under demos/ and README's Quick start run to completion,
and README maps every module and demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", quick_start, flags=re.MULTILINE | re.DOTALL)
    proc = run_python(["-c", code.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_maps_every_module_and_lists_every_demo():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    module_map = readme.split("## Module map", 1)[1]
    mapped = set(re.findall(r"^\| `twindisc\.(\w+)` \|", module_map, flags=re.MULTILINE))
    modules = {
        p.stem
        for p in (ROOT / "src" / "twindisc").glob("*.py")
        if p.stem not in ("__init__", "__main__")
    }
    assert modules - mapped == set(), "modules missing from README's module map"
    listed = set(re.findall(r"^python3 demos/(\S+\.py)$", readme, flags=re.MULTILINE))
    assert {d.name for d in DEMOS} - listed == set(), "demos missing from README"
