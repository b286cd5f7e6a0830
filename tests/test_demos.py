"""Each narrative script under demos/ runs to completion, and README maps every module and demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
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
