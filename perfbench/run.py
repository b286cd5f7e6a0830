"""twindisc benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run generates its inputs from ``--seed`` (untimed), then calls
``twindisc.cli.main(argv)`` once per input of a panel whose size follows from
``--seconds`` alone, so both sides of a comparison do the same work.  One
process, one caller, closed loop.

``--trace 0`` times the calls with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` makes one untraced and one traced pass over the same
panel and reports the per-layer metrics, the tracing overhead, and the
self-test (expected call counts, byte-identical outputs).

Correctness checks never abort a run: each one counts toward ``attempted``
and, if it fails, toward ``failed``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# Pin the environment before numpy loads its BLAS.
BLAS_THREADS = 1
THREADS_ENV_VAR = "TWIN_DISCRIM_THREADS"
os.environ.pop(THREADS_ENV_VAR, None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter until ``twindisc.cli`` is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import twindisc.cli"], env=env, check=True, cwd=ROOT
        )
        samples.append(time.perf_counter() - t0)
    return samples


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        THREADS_ENV_VAR: "unset",
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted


def timed_call(argv) -> tuple[int | None, float]:
    from inputs import run_cli

    gc.collect()
    t0 = time.perf_counter()
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check, not a dead run
        print(f"perfbench: {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    return code, time.perf_counter() - t0


def run_pass(workload, panel, out_dir: Path, checks: Checks, tracer=None):
    """Call the CLI once per panel input; returns per-call records."""
    records = []
    for i, item in enumerate(panel):
        out = out_dir / f"call_{i}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = workload.argv(item, out)
        if tracer is not None:
            tracer.reset()
        code, wall = timed_call(argv)
        spans = list(tracer.spans) if tracer is not None else None
        roots = {k: tuple(v) for k, v in tracer.roots.items()} if tracer is not None else None
        rec = {"wall": wall, "spans": spans, "roots": roots}
        if checks.expect(code == 0, f"{workload.name} input {i}: exit code {code}"):
            try:
                rec.update(workload.check(item, out, checks))
            except (OSError, ValueError, KeyError) as exc:
                checks.expect(False, f"{workload.name} input {i}: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        records.append(rec)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twindisc" / "cli.py").is_file() or not CONFIGS.is_dir():
        fail(f"no twindisc sources under {ROOT}: run from the root of a twindisc checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import twindisc

    if Path(twindisc.__file__).resolve().parent != (SRC / "twindisc").resolve():
        fail(f"imported twindisc from {twindisc.__file__}, not from {SRC}")

    from metrics import end_to_end, layer_metrics, median, self_test
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    env = environment()
    setup = measure_setup() if not args.trace else []

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True)
    # per-layer figures carry no bound, so a traced run keeps to one input
    size = 1 if args.trace else workload.panel_size(args.seconds)
    panel = workload.prepare(args.seed, size, in_dir)

    checks = Checks()
    records = run_pass(workload, panel, out_dir / "plain", checks)
    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            traced = run_pass(workload, panel, out_dir / "traced", checks, tracer)
        self_test(workload, records, traced, checks)
        metrics = layer_metrics(records, traced, checks.fail_ratio)
    else:
        metrics = end_to_end(workload, records, setup, checks.fail_ratio)

    walls = sorted(r["wall"] for r in records)
    print(f"# workload {workload.name}: {workload.command}")
    print("# env: " + json.dumps(env, sort_keys=True))
    print(
        f"# wall_s over n={len(walls)} calls: median {median(walls):.4f} s, "
        f"max {walls[-1]:.4f} s (fewer than 11 samples, so no higher percentile)"
    )
    for i, rec in enumerate(records):
        sse = f", match sse {rec['match_sse']:.6g}" if "match_sse" in rec else ""
        print(f"# call {i}: wall {rec['wall']:.4f} s{sse}")
    if setup:
        print(f"# setup_s over n={len(setup)} fresh imports: " + ", ".join(f"{s:.4f}" for s in setup))
    for what in checks.failures:
        print(f"# FAILED: {what}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
