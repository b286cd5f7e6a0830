"""Shared pytest configuration: the report header names the numeric kernels.

The pinned output digests hold only on the kernels they were recorded
with, so the first lines of a run say which float64 exp/log dispatch
target and which OpenBLAS build it ran on, and the variables that steer
them.  They also say what fork and BLAS timing turn on: the CPUs the run
may use and the OS threads the process runs once numpy is loaded (Python
3.12 and later warn when a multi-threaded process forks).  A last line
gives what a start-up timing charges: the lines of every ``*.py`` under
``src/``, which perfbench counts as ``src_lines``, and
``PYTHONDONTWRITEBYTECODE``, under which a fresh ``import twindisc.cli``
compiles every line it loads.
"""

import os
from pathlib import Path

import numpy as np


def _exp_log_targets() -> str:
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return ", ".join(
        f"{name} {target['current']}" for name, by_sig in info.items() for target in by_sig.values()
    )


def _cpus() -> str:
    return str(len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else "unknown"


def _threads() -> str:
    tasks = "/proc/self/task"
    return str(len(os.listdir(tasks))) if os.path.isdir(tasks) else "unknown"


def _src_lines() -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    return str(sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")))


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    env = ", ".join(
        f"{name}={os.environ.get(name, '')}"
        for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "OPENBLAS_NUM_THREADS")
    )
    return [
        f"numeric kernels: float64 {_exp_log_targets()}; "
        f"{blas.get('openblas configuration', 'OpenBLAS configuration unknown')}; {env}",
        f"processes: {_cpus()} CPUs in the affinity mask; "
        f"{_threads()} OS threads after import numpy",
        f"start-up: {_src_lines()} src/ lines; "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}",
    ]
