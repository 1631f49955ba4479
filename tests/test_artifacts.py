"""A run's artifacts: pinned reference windows and the documented contract."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from wbcsim.cli import main
from wbcsim.scenario import parse_param
from wbcsim.simulator import LOG_COLUMNS

import reference_runs

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def references():
    return reference_runs.load()


def first_difference(got: np.ndarray, want: np.ndarray) -> str:
    """Where two logs first differ: the cycle and column, or their lengths."""
    n = min(len(got), len(want))
    rows, cols = np.nonzero(got[:n] != want[:n])
    if len(rows):
        i, j = rows[0], cols[0]
        return (f"cycle {i}, column {LOG_COLUMNS[j]!r}: "
                f"{float(got[i, j])!r} != {float(want[i, j])!r} (reference)")
    return f"{len(got)} cycles != {len(want)} (reference)"


@pytest.mark.parametrize("name", reference_runs.CONFIGS)
def test_run_matches_its_reference_window(model, references, name):
    """The first 0.2 s of each configuration gives the stored log array and
    metrics bit for bit; regenerate them with tests/reference_runs.py only
    for a deliberate change to the arithmetic."""
    log, metrics = reference_runs.run(name, model)
    want_log, want_metrics = references[name]
    assert log.shape[1] == want_log.shape[1] == len(LOG_COLUMNS)
    assert np.array_equal(log, want_log), f"{name}: {first_difference(log, want_log)}"
    assert metrics == want_metrics


def test_first_difference_names_the_cycle_and_column():
    want = np.zeros((3, len(LOG_COLUMNS)))
    got = want.copy()
    got[2, LOG_COLUMNS.index("psi_hat")] = 0.5
    assert first_difference(got, want) == "cycle 2, column 'psi_hat': 0.5 != 0.0 (reference)"
    assert first_difference(want[:2], want) == "2 cycles != 3 (reference)"


def test_artifacts_match_their_documented_contract(tmp_path):
    """metrics.json holds exactly the README's closed key list, and the
    log.csv header is LOG_COLUMNS."""
    text = " ".join(README.read_text().split())
    documented = re.search(r"The metrics keys form a closed, documented set: `([^`]*)`", text)
    assert documented, "README lost its metrics key list"
    scn = tmp_path / "flat.scn"
    scn.write_text("terrain: {kind: flat}\nduration: 0.01\n")
    assert main(["--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0
    metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert list(metrics) == sorted(documented.group(1).split(", "))
    header = (tmp_path / "o" / "log.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == LOG_COLUMNS


def test_full_runs_reach_the_cli_as_configured(tmp_path, monkeypatch):
    """``reference_runs.py --artifacts DIR`` runs the CLI once per FULL_RUNS
    entry, into DIR/<name>, with the entry's scenario, seed and overrides
    as the CLI reads them back."""
    calls = []
    monkeypatch.setattr(reference_runs, "cli_main", lambda args: calls.append(args) or 0)
    assert reference_runs.main(["--artifacts", str(tmp_path)]) == 0
    assert len(calls) == len(reference_runs.FULL_RUNS) == 11
    for args, (name, (scenario, seed, params)) in zip(calls, reference_runs.FULL_RUNS.items()):
        option = {a: b for a, b in zip(args, args[1:]) if a in ("--scenario", "--out", "--seed")}
        assert option["--scenario"].endswith(f"{scenario}.scn")
        assert option["--out"] == str(tmp_path / name)
        assert option["--seed"] == str(seed)
        overrides = [b for a, b in zip(args, args[1:]) if a == "--param"]
        assert dict(parse_param(p) for p in overrides) == params


def test_moves_names_every_moved_column_and_metric(tmp_path, capsys, references):
    """``reference_runs.py --moves OLD.npz`` prints one line per window: the
    log columns and metrics that differ from OLD.npz, each with its largest
    |difference|, a changed row count, or 'unchanged'."""
    arrays = {}
    for name, (log, metrics) in references.items():
        arrays[f"{name}.log"], arrays[f"{name}.metrics"] = log, np.array(metrics)
    log = references["disturbance"][0].copy()
    log[3, LOG_COLUMNS.index("phi")] += 0.25
    log[5, LOG_COLUMNS.index("phi")] -= 0.5
    log[0, LOG_COLUMNS.index("F_zl")] = np.nan
    metrics = json.loads(references["disturbance"][1])
    metrics["roll_sd"] += 1e-3
    arrays["disturbance.log"] = log
    arrays["disturbance.metrics"] = np.array(json.dumps(metrics, sort_keys=True))
    arrays["asymmetric.log"] = references["asymmetric"][0][:-2]
    np.savez(tmp_path / "old.npz", **arrays)

    assert reference_runs.main(["--moves", str(tmp_path / "old.npz")]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert list(lines) == list(reference_runs.CONFIGS)
    assert lines["disturbance"] == "phi 0.5, F_zl inf, metrics.roll_sd 0.001"
    rows = len(references["asymmetric"][0])
    assert lines["asymmetric"] == f"{rows - 2} -> {rows} rows"
    assert all(lines[name] == "unchanged" for name in list(lines)[2:])
    assert reference_runs.main(["--moves"]) == 2
