"""Fuzz the exit-code contract of every subcommand.

Each example mutates one valid input (a dataset CSV, the shipped simulation
config, the shipped parameter file, or a flag) and runs ``cli.main``
in-process.  The contract under test:

- the exit code is 0 (success), 1 (compute failure) or 2 (usage error);
- nothing escapes ``cli.main`` but argparse's own ``SystemExit(2)``;
- a run that exits 1 or 2 says why on stderr, and one that exits 2 writes
  no file;
- every JSON file written is strict JSON (no NaN or Infinity), and every
  report follows its schema;
- after exit 0, every dataset in the report has at least one order.

Every kind of mutation runs; hypothesis picks where it lands.  No example
scales up a size the program works in proportion to: the run length, the
substep count and the sample count only ever shrink or turn invalid.  A
valid ``match`` takes well under 0.2 s, so each dataset mutation runs 3
examples under both commands.  Each command's unmutated command line, and
each valid input, must exit 0: a harness whose own flags stop parsing then
fails rather than fuzz argparse alone.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twindisc import cli, configio, twin

from helpers import validate_report

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the shipped config, cut to the shortest run it allows (50 samples at 1 s)
SIM_CONFIG = (CONFIGS / "twin_default.ini").read_text().replace(
    "duration_s = 600", "duration_s = 50"
)
PARAMS = (CONFIGS / "peltier_matched.ini").read_text()


def fuzz(n):
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


def _dataset_rows() -> list[list[str]]:
    """Header and rows of a 50-sample dataset from the shipped configs at 70 degC."""
    cfg, _ = configio.load_sim_config(CONFIGS / "twin_default.ini")
    params = configio.load_params_file(CONFIGS / "peltier_matched.ini")[70.0]
    ds = twin.simulate_closed_loop(params, replace(cfg, setpoint=70.0, duration=50.0))
    cols = (ds.t, ds.r, ds.u, ds.y)
    return [["t", "r", "u", "y"]] + [[repr(float(c[k])) for c in cols] for k in range(len(ds))]


ROWS = _dataset_rows()


def _text(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


CSV_KINDS = [
    "valid", "empty", "header_only", "short", "extra_column", "missing_column",
    "repeated_column", "bad_cell", "non_uniform_t", "scaled", "non_utf8", "crlf",
]


@st.composite
def csv_bytes(draw, kind) -> bytes:
    """The 50-sample dataset under one mutation of the given kind."""
    rows = [list(row) for row in ROWS]
    if kind == "empty":
        return b""
    if kind == "header_only":
        return _text(rows[:1])
    if kind == "short":
        return _text(rows[: draw(st.integers(2, 4))])
    if kind == "extra_column":
        return _text([row + [cell] for row, cell in zip(rows, ["z"] + ["1.0"] * len(rows))])
    if kind == "missing_column":
        j = draw(st.integers(0, 3))
        return _text([row[:j] + row[j + 1:] for row in rows])
    if kind == "repeated_column":
        j = draw(st.integers(0, 3))
        return _text([row + [row[j]] for row in rows])
    if kind == "bad_cell":
        i, j = draw(st.integers(1, len(rows) - 1)), draw(st.integers(0, 3))
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "", "abc", "1e400", "0x10"]))
    elif kind == "non_uniform_t":
        i = draw(st.integers(1, len(rows) - 1))
        rows[i][0] = repr(float(rows[i][0]) + draw(st.sampled_from([1e-3, 0.5, -0.5, -2.0])))
    elif kind == "scaled":
        # finite samples whose squares overflow, or whose digits all vanish
        scale = draw(st.sampled_from([1e300, 1e-300, 1e150]))
        for row in rows[1:]:
            row[2:] = [repr(float(v) * scale) for v in row[2:]]
    data = _text(rows)
    if kind == "non_utf8":
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + data[pos:]
    elif kind == "crlf":
        data = data.replace(b"\n", b"\r\n")
    return data


INI_KINDS = [
    "valid", "unknown_key", "unknown_section", "duplicate_key", "duplicate_section",
    "bad_value", "negative_value", "missing_key", "missing_section", "default_section",
    "no_section_header", "non_utf8",
]


@st.composite
def ini_bytes(draw, text, kind) -> bytes:
    """An INI file under one mutation of the given kind."""
    lines = text.splitlines()
    keys = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    sections = [i for i, line in enumerate(lines) if line.startswith("[")]
    i = draw(st.sampled_from(keys))
    key, value = (part.strip() for part in lines[i].split("=", 1))
    s = draw(st.sampled_from(sections))
    if kind == "unknown_key":
        lines.insert(s + 1, "colour = blue")
    elif kind == "unknown_section":
        lines.insert(s, draw(st.sampled_from(["[extra]", lines[s][:-1] + "x]", "[peltier."])))
    elif kind == "duplicate_key":
        lines.insert(i + 1, lines[i])
    elif kind == "duplicate_section":
        lines.append(lines[s])
    elif kind == "bad_value":
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "0", "-1", "", "abc", "5%"]))
        lines[i] = f"{key} = {bad}"
    elif kind == "negative_value":
        lines[i] = f"{key} = -{value}"
    elif kind == "missing_key":
        del lines[i]
    elif kind == "missing_section":
        del lines[s]
    elif kind == "default_section":
        lines[:0] = ["[DEFAULT]", lines[i]]
    elif kind == "no_section_header":
        lines.insert(0, lines[i])
    data = ("\n".join(lines) + "\n").encode()
    if kind == "non_utf8":
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + b"\xff" + data[pos:]
    return data


def _reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def run(argv, workdir: Path) -> int:
    """``cli.main`` on ``argv``: checks the contract, returns the exit code."""
    before = set(workdir.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), code
    if code != 0:
        assert "error:" in err.getvalue()
    if code == 2:
        assert set(workdir.rglob("*")) == before, "a usage error wrote a file"
    for path in set(workdir.rglob("*.json")) - before:
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        if path.name == "report.json":
            validate_report(payload)
            if code == 0:
                assert payload["datasets"]
                assert all(ds["orders"] for ds in payload["datasets"])
    return code


@pytest.fixture(scope="module")
def inputs():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sim.ini").write_text(SIM_CONFIG)
        (root / "params.ini").write_text(PARAMS)
        (root / "good.csv").write_bytes(_text(ROWS))
        yield root


@contextlib.contextmanager
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def _numeric_keys(text) -> list:
    """The keys of an INI text whose values are single numbers, in order."""
    keys = {}
    for line in text.splitlines():
        key, sep, value = (part.strip() for part in line.partition("="))
        if sep and not key.startswith("#"):
            with contextlib.suppress(ValueError):
                float(value)
                keys[key] = None
    return list(keys)


# a run's work scales with ode_substeps, so it stays as shipped
EXTREME_CASES = [
    (mutated, key, value)
    for mutated, text in (("config", SIM_CONFIG), ("params", PARAMS))
    for key in _numeric_keys(text) if key != "ode_substeps"
    for value in ("1e308", "-1e308", "1e-310")
]


@pytest.mark.parametrize("mutated, key, value", EXTREME_CASES)
def test_float_extremes_keep_the_contract(tmp_path, mutated, key, value):
    """One key at a float extreme in every section; a run that fails writes nothing."""
    files = {"config": tmp_path / "sim.ini", "params": tmp_path / "params.ini"}
    files["config"].write_text(SIM_CONFIG)
    files["params"].write_text(PARAMS)
    text = SIM_CONFIG if mutated == "config" else PARAMS
    lines = [f"{key} = {value}" if line.partition("=")[0].strip() == key else line
             for line in text.splitlines()]
    files[mutated].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run(["simulate", "--config", files["config"], "--params", files["params"],
                "--out-dir", out], tmp_path)
    if code != 0:
        assert not out.exists()


@pytest.mark.parametrize("kind", CSV_KINDS)
@pytest.mark.parametrize("command", ["discriminate", "match"])
def test_dataset_mutations_keep_the_contract(inputs, command, kind):
    @fuzz(3)
    @given(data=csv_bytes(kind), with_good=st.booleans())
    def check(data, with_good):
        with workdir() as work:
            path = work / "mutated.csv"
            path.write_bytes(data)
            if command == "discriminate":
                extra = [inputs / "good.csv"] if with_good else []
                code = run(["discriminate", path, *extra, "--orders", "22221",
                            "--out", work / "report"], work)
            else:
                code = run(["match", path, "--config", inputs / "sim.ini",
                            "--out", work / "m.json"], work)
            assert code == 0 or kind != "valid"

    check()


@pytest.mark.parametrize("kind", INI_KINDS)
@pytest.mark.parametrize("mutated", ["config", "params"])
def test_config_mutations_keep_the_contract(inputs, mutated, kind):
    @fuzz(3)
    @given(data=ini_bytes(SIM_CONFIG if mutated == "config" else PARAMS, kind))
    def check(data):
        with workdir() as work:
            files = {"config": work / "sim.ini", "params": work / "params.ini"}
            files["config"].write_text(SIM_CONFIG)
            files["params"].write_text(PARAMS)
            files[mutated].write_bytes(data)
            out = work / "out"
            code = run(["simulate", "--config", files["config"], "--params", files["params"],
                        "--out-dir", out], work)
            assert code == 0 or kind != "valid"
            if code == 0:
                assert (out / "manifest.json").exists()

    check()


# each flag at and just past its bounds, one flag per run
FLAG_VALUES = {
    "discriminate": {
        "--orders": ["22221,22221", "", ",", "2222", "22220", "99999", "0000x", "22221,"],
        "--precision": ["-1", "0", "18", "19", "x"],
        "--seed": ["-1", "0", str(2**63)],
        "--residuals": ["pred", "other"],
        "--out": ["", ".", "missing/report", "report.json"],
    },
    "match": {
        "--initial": [
            "other", "0.005,0.05,2", "0.2,1,80", "0.0049,0.5,10", "0.05,0.5,80.1",
            "nan,0.5,10", "inf,0.5,10", "0.05,0.5", "a,b,c",
        ],
        "--channels": ["y", "u"],
        "--out": ["", ".", "missing/m.json"],
    },
    "simulate": {
        "--seed": ["-1", "0", str(2**63), "x"],
        "--out-dir": ["", ".", "sim.ini"],
    },
}


def _base_flags(inputs) -> dict:
    """Each command's valid flags; relative --out and --out-dir values land in the cwd."""
    return {
        "discriminate": {"--orders": "22221", "--out": "report"},
        "match": {"--config": inputs / "sim.ini", "--out": "m.json"},
        "simulate": {"--config": inputs / "sim.ini", "--params": inputs / "params.ini",
                     "--out-dir": "out"},
    }


def _run_with(inputs, workdir: Path, command, flags) -> int:
    datasets = [] if command == "simulate" else [inputs / "good.csv"]
    return run([command, *datasets, *(x for kv in flags.items() for x in kv)], workdir)


@pytest.mark.parametrize("command", list(FLAG_VALUES))
def test_base_command_line_succeeds(inputs, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert _run_with(inputs, tmp_path, command, _base_flags(inputs)[command]) == 0


@pytest.mark.parametrize(
    "command, flag, value",
    [(cmd, flag, value) for cmd, flags in FLAG_VALUES.items()
     for flag, values in flags.items() for value in values],
)
def test_flag_boundaries_keep_the_contract(inputs, tmp_path, monkeypatch, command, flag, value):
    (tmp_path / "sim.ini").write_text(SIM_CONFIG)
    monkeypatch.chdir(tmp_path)
    _run_with(inputs, tmp_path, command, _base_flags(inputs)[command] | {flag: value})
