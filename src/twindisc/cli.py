"""Batch front end: simulate -> match -> identify -> discriminate -> select.

Subcommands ingest/emit CSV datasets and JSON reports.  Exit codes form a
stable contract: 0 success, 1 computational failure, 2 usage or validation
error.  All randomness flows from a single seed that is recorded in the
outputs, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import coding, configio, criteria, lti, matching, twin
from .nugap import argmin_cumulative, select_nominal

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2

# the criteria that add a complexity penalty to a fit's loss; lower is better
PENALIZED = ("naic", "bic", "mdl")
CRITERION_KEYS = ("information_gain", *PENALIZED)
RESIDUAL_SOURCES = ("sim", "pred")

_REPORT_CSV_COLUMNS = (
    "setpoint,order,n_params,"
    "l_t_y,l_bj_y,ig_y,l_t_u,l_bj_u,ig_u,ig_total,"
    "naic_y,naic_u,naic_total,bic_y,bic_u,bic_total,mdl_y,mdl_u,mdl_total,"
    "best_ig,best_naic,best_bic,best_mdl"
)


@dataclass(frozen=True)
class DiscriminateOptions:
    orders: tuple = lti.DEFAULT_ORDER_LABELS
    precision: int = coding.DEFAULT_PRECISION
    seed: int = 0
    residual_source: str = "sim"

    def __post_init__(self):
        # checked here so that a bad value fails before any identification
        if not self.orders:
            raise ValueError("at least one order is needed")
        for label in self.orders:
            lti.OrderSpec.from_label(label)
            if self.orders.count(label) > 1:
                raise ValueError(f"order {label} is listed more than once")
        coding.encode_number(0.0, self.precision)  # the codec's own range check
        if not (type(self.seed) is int and self.seed >= 0):  # the report's JSON integer
            raise ValueError("seed must be >= 0 and an integer")
        if self.residual_source not in RESIDUAL_SOURCES:
            raise ValueError(
                f"residual source must be one of {RESIDUAL_SOURCES}, "
                f"got {self.residual_source!r}"
            )


@contextlib.contextmanager
def _output_set(made_dirs=()):
    """Write a command's output files as one set.

    The block stages each file with ``stage(path, text)``, or writes the
    ``.tmp`` path that ``stage(path)`` returns.  The files take their names
    only once the block ends; if anything fails first, no output is replaced:
    the staged ``.tmp`` files are removed, then each directory of
    ``made_dirs`` that is empty, in order.
    """
    staged = []

    def stage(path: str, text: str | None = None) -> str:
        staged.append(path)
        if text is not None:
            with open(f"{path}.tmp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return f"{path}.tmp"

    try:
        yield stage
        for path in staged:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in staged:
            with contextlib.suppress(OSError):
                os.remove(f"{path}.tmp")
        for path in made_dirs:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _write_csvs(in_fd: int, status_fd: int, parent_fds):
    """The writer process: write each (dataset, path) that arrives, then exit.

    It leaves only through ``os._exit``, so it runs no exit handler and
    flushes none of the stdio buffers it shares with its parent.  The
    exception that stops it goes to the parent, pickled.
    """
    code = 1
    try:
        for fd in parent_fds:  # so that the input ends when the parent closes its end
            os.close(fd)
        with os.fdopen(in_fd, "rb") as pipe:
            while True:
                try:
                    dataset, path = pickle.load(pipe)
                except EOFError:
                    break
                twin.write_csv(dataset, path)
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.write(status_fd, pickle.dumps(exc))
    finally:
        os._exit(code)


@contextlib.contextmanager
def _csv_writer():
    """Write datasets as CSV files in a forked process, while this one goes on.

    The block hands over each dataset with ``write(dataset, path)``; the
    child calls ``twin.write_csv`` on them in order.  The end of the block,
    however it comes, reaps the child.  An exception the child stopped on is
    raised there if the block ended cleanly or on the ``BrokenPipeError`` of
    a ``write`` to the stopped child.  Any other exception from the block
    propagates as it is, and the child is left to write what it was sent.
    """
    in_fd, out_fd = os.pipe()
    status_in, status_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (in_fd, out_fd, status_in, status_out):
            os.close(fd)
        raise
    if pid == 0:
        _write_csvs(in_fd, status_out, (out_fd, status_in))
    os.close(in_fd)
    os.close(status_out)
    pipe = os.fdopen(out_fd, "wb")

    def write(dataset, path):
        pickle.dump((dataset, path), pipe)
        pipe.flush()

    stopped = None  # the exception the block stopped on
    try:
        yield write
    except BaseException as exc:
        stopped = exc
        raise
    finally:
        error = None
        try:
            with contextlib.suppress(BrokenPipeError):
                pipe.close()
            # the report ends when the child does, so reading it before the wait
            # cannot leave the child blocked on a full pipe
            with os.fdopen(status_in, "rb") as fh:
                report = fh.read()
            status = os.waitpid(pid, 0)[1]
            if report:
                error = pickle.loads(report)
            elif status:
                code = os.waitstatus_to_exitcode(status)
                error = ChildProcessError(f"the CSV writer process ended with exit code {code}")
        except OSError:
            if stopped is None:
                raise
            # a reap that fails leaves the block's own exception to propagate
        if error is not None and (stopped is None or isinstance(stopped, BrokenPipeError)):
            raise error from None  # the child stopped first: its exception says why


def _make_dirs(path: str) -> list:
    """``os.makedirs(path)``; returns the directories it made, deepest first."""
    made = []
    head = os.path.normpath(path)
    while head and not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    with _output_set(made):
        os.makedirs(path, exist_ok=True)
    return made


def _check_out_paths(*paths: str, inputs=()) -> None:
    """Check the files a command will write, before any work: none may be an input."""
    inputs = [src for src in inputs if src and os.path.exists(src)]
    for path in paths:
        if not os.path.basename(path):
            raise ValueError(f"output path {path!r} names no file")
        out_dir = os.path.dirname(path) or "."
        if not os.path.isdir(out_dir):
            raise ValueError(f"output directory {out_dir!r} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"output path {path!r} is a directory")
        for out in (path, f"{path}.tmp"):
            if os.path.exists(out) and any(os.path.samefile(out, src) for src in inputs):
                raise ValueError(f"output path {out!r} is an input file")


def _num(value: float):
    """JSON-safe number: non-finite collapses to null (flags carry the why)."""
    return float(value) if math.isfinite(value) else None


def _fmt(value) -> str:
    """Shortest round-trip text for report CSV cells."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _nugap_model_order(best: dict) -> str:
    """Consensus order for the gap stage: majority of the penalized criteria's winners."""
    winners = [best[key] for key in PENALIZED]
    top = max(map(winners.count, winners))
    return min(label for label in winners if winners.count(label) == top)


def _score_dataset(dataset: twin.TimeSeriesDataset, opts: DiscriminateOptions):
    """Identify the model family on one dataset and score every order.

    Orders are scored from their fits' residuals, under ``pred`` the penalized
    criteria from one-step errors.  Returns the report and the consensus model
    labelled by the dataset.  Raises FitFailureError if no order is identified.
    """
    from . import sysid  # scipy loads here, so match and simulate never load it

    family = sysid.identify_family(dataset, opts.orders, opts.seed)
    failures = list(family.errors)
    scored = {key: fit.sim_residuals for key, fit in family.fits.items()}  # what nAIC/BIC/MDL read
    if opts.residual_source == "pred":
        for (lbl, ch), fit in family.fits.items():
            try:
                scored[lbl, ch] = sysid.innovations(fit, dataset.r, getattr(dataset, ch))
            except lti.FIT_FAILURES as exc:  # a noise model that cannot be fitted drops its order
                del scored[lbl, ch]
                failures.append((lbl, ch, f"{type(exc).__name__}: {exc}"))
        rank = [spec.label for spec in sysid.fitting_order(opts.orders)]
        failures.sort(key=lambda e: (rank.index(e[0]), e[1] == "u"))  # in the order of the fits
    errors = [f"order {lbl} channel {ch}: {msg}" for lbl, ch, msg in failures]
    labels = [lbl for lbl in opts.orders if (lbl, "y") in scored and (lbl, "u") in scored]
    if not labels:
        # an order that lacks a fit had a channel fail, so errors is not empty
        raise lti.FitFailureError(f"no order was identified; first error: {errors[0]}")

    rows = []
    # lower is better for every criterion, so information gain enters negated
    scores = {key: [] for key in CRITERION_KEYS}
    for label in labels:
        n_params = family.fits[label, "y"].model.n_params
        sim = tuple(family.fits[label, ch].sim_residuals for ch in ("y", "u"))
        ig_y, ig_u = coding.simo_information_gain(dataset, sim, opts.precision)
        crit_y, crit_u = criteria.simo_criteria((scored[label, "y"], scored[label, "u"]), n_params)
        row = {"order": label, "n_params": n_params}
        for name, ig, rep in (("y", ig_y, crit_y), ("u", ig_u, crit_u)):
            row[name] = {**asdict(ig), "gain": ig.gain, "explanation_degree": ig.explanation_degree,
                         **asdict(rep), "naic": _num(rep.naic), "bic": _num(rep.bic)}
        # a model scores the sum of its two channels' scores, y + u: summed here only
        row["ig_total"] = ig_y.gain + ig_u.gain
        scores["information_gain"].append(-row["ig_total"])
        for key in PENALIZED:
            total = getattr(crit_y, key) + getattr(crit_u, key)
            # a non-finite MDL is a bug, which write_report refuses, so it is not nulled
            row[f"{key}_total"] = total if key == "mdl" else _num(total)
            scores[key].append(total)
        rows.append(row)

    best: dict = {}
    ties: dict = {}
    for key, values in scores.items():
        winner, ties[key] = argmin_cumulative(values)  # an exact tie goes to the lowest index
        best[key] = rows[winner]["order"]
    order_for_gap = _nugap_model_order(best)
    report = {
        "label": dataset.label,
        "n_samples": len(dataset),
        "sample_time": dataset.sample_time,
        "orders": rows,
        "best": best,
        "ties": ties,
        "nugap_model_order": order_for_gap,
        "errors": errors,
    }
    ts = dataset.sample_time
    tf_y, tf_u = (family.fits[(order_for_gap, ch)].model.deterministic_tf(ts) for ch in ("y", "u"))
    return report, lti.SimoModel(tf_y, tf_u, label=dataset.label)


def discriminate_datasets(
    datasets: list, opts: DiscriminateOptions = DiscriminateOptions()
) -> dict:
    """Run identification + scoring on each dataset, then the gap selection.

    A dataset that fails with one of ``lti.FIT_FAILURES`` goes into the report's errors, and
    the nu-gap stage over the consensus models is omitted with a note when fewer than two
    are available or it raises ValueError; any other exception is a bug and propagates.
    """
    dataset_reports: list = []
    gap_models: list = []
    errors: list = []
    for dataset in datasets:
        try:
            report, gap_model = _score_dataset(dataset, opts)
        except lti.FIT_FAILURES as exc:
            errors.append(f"dataset {dataset.label!r}: {exc}")
            continue
        dataset_reports.append(report)
        gap_models.append(gap_model)

    nugap_section = None
    nugap_note = ""
    if len(gap_models) < 2:
        nugap_note = "nu-gap selection needs >=2 identified models; section omitted"
    else:
        try:
            matrix, winner, tie = select_nominal(gap_models)
            nugap_section = {
                "labels": list(matrix.labels),
                "matrix": [[float(v) for v in row] for row in matrix.values],
                "cumulative": [float(v) for v in matrix.cumulative],
                "winner_index": winner,
                "winner_label": matrix.labels[winner],
                "tie": tie,
            }
        except ValueError as exc:
            nugap_note = f"nu-gap selection failed: {exc}"
            errors.append(nugap_note)

    return {
        "config": {**asdict(opts), "orders": list(opts.orders)},
        "datasets": dataset_reports,
        "nugap": nugap_section,
        "nugap_note": nugap_note,
        "errors": errors,
    }


def report_csv_text(report: dict) -> str:
    """Flatten a report into the tabular per-(setpoint, order) CSV."""
    lines = [_REPORT_CSV_COLUMNS]
    for ds in report["datasets"]:
        for row in ds["orders"]:
            channels = (row["y"], row["u"])
            cells = [row["n_params"]]
            cells += [ch[field] for ch in channels for field in ("l_trivial", "l_model", "gain")]
            cells.append(row["ig_total"])
            for key in PENALIZED:
                cells += [*(ch[key] for ch in channels), row[f"{key}_total"]]
            cells += [ds["best"][key] == row["order"] for key in CRITERION_KEYS]
            lines.append(",".join([ds["label"], row["order"], *map(_fmt, cells)]))
    return "\n".join(lines) + "\n"


def _report_paths(out_path: str) -> tuple[str, str]:
    """The JSON and CSV paths of the report that ``--out out_path`` names."""
    base, ext = os.path.splitext(out_path)
    if ext == ".json":
        return out_path, f"{base}.csv"
    return f"{out_path}.json", f"{out_path}.csv"


def write_report(report: dict, out_path: str) -> tuple[str, str]:
    """Emit the JSON and CSV forms of a report.

    The report's shape is fixed by ``twindisc/schemas/``, which the tests
    check every written report against.  A non-finite number is a bug (``_num``
    maps the criteria that may be infinite to null): it raises ValueError
    before either file is written, rather than emit the non-JSON token NaN.
    The two files take their names together, once both are written.
    """
    json_path, csv_path = _report_paths(out_path)
    with _output_set() as stage:
        stage(json_path, json.dumps(report, indent=2, allow_nan=False) + "\n")
        stage(csv_path, report_csv_text(report))
    return json_path, csv_path


def cmd_simulate(args):
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    base_cfg, setpoints = configio.load_sim_config(args.config)
    params_map = configio.load_params_file(args.params)
    by_setpoint = {
        sp: configio.params_for_setpoint(params_map, sp, args.params) for sp in setpoints
    }
    labels = [twin.setpoint_label(sp) for sp in sorted(by_setpoint)]
    paths = [os.path.join(args.out_dir, f"dataset_{label}.csv") for label in labels]
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    # nothing a run computes goes into the manifest or the "wrote" lines
    manifest = {"seed": args.seed}
    for key, path in (("config", args.config), ("params", args.params)):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest.update({key: os.path.basename(path), f"{key}_sha256": digest})
    manifest["datasets"] = [
        {"label": label, "file": os.path.basename(path), "sensor_seed": args.seed + i}
        for i, (label, path) in enumerate(zip(labels, paths))
    ]
    wrote = [f"wrote {path} ({base_cfg.n_samples} samples)" for path in paths]
    try:
        made_dirs = _make_dirs(args.out_dir)
    except OSError as exc:
        raise OSError(f"--out-dir: {exc}") from exc
    # passes whenever made_dirs is not empty: a directory just made holds no file
    _check_out_paths(*paths, manifest_path, inputs=(args.config, args.params))

    def work():
        # each run goes to the writer process as soon as it is simulated, so one
        # run is held at a time; the files take their names once the writer is
        # done and the manifest is written
        with _output_set(made_dirs) as stage:
            with _csv_writer() as write:
                campaign = twin.generate_campaign(by_setpoint, base_cfg, seed=args.seed)
                for path, ds in zip(paths, campaign):
                    write(ds, stage(path))
            stage(manifest_path, json.dumps(manifest, indent=2) + "\n")
        print(*wrote, f"wrote {manifest_path}", sep="\n")

    return work


def cmd_discriminate(args):
    opts = DiscriminateOptions(
        orders=tuple(args.orders.split(",")),
        precision=args.precision,
        seed=args.seed,
        residual_source=args.residuals,
    )
    _check_out_paths(args.out)
    _check_out_paths(*_report_paths(args.out), inputs=args.datasets)
    # a dataset that cannot be read, or whose data the codec cannot price,
    # goes into the report's errors, as long as another one can be used
    datasets = []
    load_errors = []
    for path in args.datasets:
        try:
            dataset = twin.read_csv(path)
        except (OSError, ValueError) as exc:
            load_errors.append(str(exc))
            continue
        try:
            # the largest magnitude of a column is the one that can leave the token range
            for name, column in (("u", dataset.u), ("y", dataset.y)):
                coding.encode_number(np.max(np.abs(column)), opts.precision)
        except ValueError as exc:
            load_errors.append(f"{path}: column {name} cannot be priced: {exc}")
            continue
        datasets.append(dataset)
    if not datasets:
        raise ValueError("; ".join(load_errors))
    labels = [ds.label for ds in datasets]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"dataset label {label!r} is given more than once")

    def work():
        report = discriminate_datasets(datasets, opts)
        errors = report["errors"] = load_errors + report["errors"]
        json_path, csv_path = write_report(report, args.out)
        print(f"wrote {json_path}")
        print(f"wrote {csv_path}")
        if not report["datasets"]:
            raise lti.FitFailureError("no dataset was identified: " + "; ".join(errors))

    return work


def _parse_initial(text: str) -> twin.PeltierParams:
    if text in matching.INITIAL_GUESS_PRESETS:
        return matching.INITIAL_GUESS_PRESETS[text]
    parts = text.split(",")
    if len(parts) != 3:
        presets = ", ".join(sorted(matching.INITIAL_GUESS_PRESETS))
        raise ValueError(
            f"initial guess must be one of the presets ({presets}) "
            f"or 'alpha,k,c' in V/K, W/K, J/K"
        )
    return matching.params_from(parts)


def cmd_match(args):
    _check_out_paths(args.out, inputs=(args.dataset, args.config))
    dataset = twin.read_csv(args.dataset)
    sim_config = configio.load_sim_config(args.config)[0] if args.config else None
    problem = matching.MatchProblem(
        dataset=dataset,
        initial=_parse_initial(args.initial),
        channels=args.channels,
        sim_config=sim_config,
    )
    if not args.config:
        pid = problem.sim_config.pid
        print(f"note: no --config given, so the twin runs the default PID gains kp={pid.kp:g} "
              f"ki={pid.ki:g} kd={pid.kd:g}; pass --config if other gains recorded the data",
              file=sys.stderr)

    def work():
        result = matching.match_parameters(problem)
        payload = {
            "dataset": dataset.label,
            "n_samples": len(dataset),
            "initial": args.initial,
            "channels": args.channels,
            "params": {
                key: getattr(result.params, name) for key, name in configio.PARAM_KEYS.items()
            },
            "sse": result.sse,
            "iterations": result.iterations,
            "converged": result.converged,
            "at_bound": result.at_bound,
            "start_index": result.start_index,
            "start_costs": [_num(c) for c in result.start_costs],
        }
        with _output_set() as stage:
            stage(args.out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")

    return work


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twindisc",
        description="Digital-twin model discrimination pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate campaign datasets from configs")
    p_sim.add_argument("--config", required=True, help="simulation config (INI)")
    p_sim.add_argument("--params", required=True, help="Peltier parameter file (INI)")
    p_sim.add_argument("--out-dir", required=True, help="output directory for CSVs")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_dis = sub.add_parser("discriminate", help="identify, score and select models")
    p_dis.add_argument("datasets", nargs="+", help="dataset CSV paths")
    p_dis.add_argument("--out", required=True, help="report path (JSON + CSV emitted)")
    p_dis.add_argument("--orders", default=",".join(lti.DEFAULT_ORDER_LABELS))
    p_dis.add_argument("--precision", type=int, default=coding.DEFAULT_PRECISION)
    p_dis.add_argument("--seed", type=int, default=0)
    p_dis.add_argument("--residuals", choices=RESIDUAL_SOURCES, default="sim")
    p_dis.set_defaults(func=cmd_discriminate)

    p_match = sub.add_parser("match", help="behavioral matching on one dataset")
    p_match.add_argument("dataset", help="dataset CSV path")
    p_match.add_argument(
        "--initial",
        default="datasheet",
        help="preset name (datasheet, experience, measurement) or 'alpha,k,c'",
    )
    p_match.add_argument("--channels", choices=matching.CHANNELS, default="yu")
    p_match.add_argument("--config", default=None, help="simulation config (INI)")
    p_match.add_argument("--out", required=True, help="result JSON path")
    p_match.set_defaults(func=cmd_match)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and map its outcome to the exit-code contract.

    Each ``cmd_*`` reads and checks all of its input, then returns its work
    as a function of no arguments.  A ValueError or OSError while reading
    the input, or an OSError while writing the output, is a usage error; a
    simulation that diverges, a match that fails or a campaign with no
    identified dataset is a compute failure.  Any other exception is a bug
    and propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        work = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        work()
    except (
        twin.SimulationDivergedError, matching.MatchFailureError, lti.FitFailureError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
