"""Configuration parsing, state persistence, and the CLI subcommands
(outputs, column orders, exit codes)."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from quantgame import ConfigError, load_config, load_state, save_state
from quantgame.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_STATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)

from conftest import IDENTITY_CONFIG, REFERENCE_CONFIG

SMALL_CONFIG = """\
agents:
  - {id: 1, alpha: 8.0, beta: 2.0, levels: 4}
  - {id: 2, alpha: 2.0, beta: 8.0, levels: 4}
comm_matrix:
  - [0.85, 0.15]
  - [0.15, 0.85]
noise: {shape: point, halfwidth: 0.0}
solver: {tol: 1.0e-9, max_sweeps: 60, schedule_policy: cyclic, n_starts: 4, seed: 0}
montecarlo: {n_samples: 20000, seed: 5}
outputs: {directory: out, formats: [csv, json]}
"""


@pytest.fixture(scope="session")
def cli_ws(tmp_path_factory):
    """Workspace with a small two-agent config solved once via the CLI."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "small.cfg"
    cfg.write_text(SMALL_CONFIG)
    out = ws / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    return cfg, out


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadConfig:
    def test_shipped_configs_load(self):
        for path in (REFERENCE_CONFIG, IDENTITY_CONFIG):
            cfg = load_config(path)
            assert len(cfg.agents) == cfg.comm.n_agents

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_row_sum_names_row(self, tmp_path):
        bad = SMALL_CONFIG.replace("[0.85, 0.15]", "[0.85, 0.35]", 1)
        p = tmp_path / "bad.cfg"
        p.write_text(bad)
        with pytest.raises(ConfigError, match="row 0"):
            load_config(p)

    def test_near_stochastic_row_renormalized(self, tmp_path):
        tweaked = SMALL_CONFIG.replace("[0.85, 0.15]", "[0.8500000002, 0.15]", 1)
        p = tmp_path / "near.cfg"
        p.write_text(tweaked)
        cfg = load_config(p)
        assert cfg.comm.entries[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_field_named(self, tmp_path):
        bad = SMALL_CONFIG.replace("alpha: 8.0, ", "", 1)
        p = tmp_path / "missing.cfg"
        p.write_text(bad)
        with pytest.raises(ConfigError, match="alpha"):
            load_config(p)

    def test_bad_noise_shape(self, tmp_path):
        bad = SMALL_CONFIG.replace("shape: point", "shape: gaussian")
        p = tmp_path / "noise.cfg"
        p.write_text(bad)
        with pytest.raises(ConfigError, match="noise.shape"):
            load_config(p)

    def test_bad_beta_params(self, tmp_path):
        bad = SMALL_CONFIG.replace("alpha: 8.0", "alpha: -1.0", 1)
        p = tmp_path / "beta.cfg"
        p.write_text(bad)
        with pytest.raises(ConfigError, match=r"agents\[0\]"):
            load_config(p)


class TestStatePersistence:
    def test_round_trip_bit_exact(self, cli_ws, tmp_path):
        cfg_path, out = cli_ws
        cfg = load_config(cfg_path)
        state = load_state(out / "state.json", cfg.game())
        copy = tmp_path / "state2.json"
        save_state(state, cfg.agent_ids, copy)
        assert copy.read_bytes() == (out / "state.json").read_bytes()

    def test_loaded_state_matches_solution(self, cli_ws):
        cfg_path, out = cli_ws
        cfg = load_config(cfg_path)
        state = load_state(out / "state.json", cfg.game())
        doc = json.loads((out / "state.json").read_text())
        for q, rec in zip(state.quantizers, doc["quantizers"]):
            assert q.words.tolist() == rec["words"]
            assert q.boundaries.tolist() == rec["boundaries"]


class TestCliSolve:
    def test_outputs_exist(self, cli_ws):
        _cfg, out = cli_ws
        for name in ("state.json", "sweeps.csv", "report.json", "report.csv"):
            assert (out / name).exists()

    def test_sweep_log_format(self, cli_ws):
        _cfg, out = cli_ws
        header, rows = _read_csv(out / "sweeps.csv")
        assert header == ["sweep", "agent", "kind", "index", "value"]
        kinds = {r[2] for r in rows}
        assert kinds == {"word", "boundary", "usage"}
        sweeps = sorted({int(r[0]) for r in rows})
        assert sweeps[0] == 0  # bootstrap snapshot comes first

    def test_report_contents(self, cli_ws):
        _cfg, out = cli_ws
        doc = json.loads((out / "report.json").read_text())
        assert doc["converged"] is True
        assert doc["agents"] == [1, 2]
        assert max(doc["observed_residuals"]) < 1e-8
        header, rows = _read_csv(out / "report.csv")
        assert header == ["agent", "observed_residual", "br_distance"]
        assert [int(r[0]) for r in rows] == [1, 2]

    def test_non_convergence_exit_code(self, cli_ws, tmp_path):
        cfg, _out = cli_ws
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                     "--tol", "0", "--max-sweeps", "2"])
        assert code == EXIT_NO_CONVERGENCE

    def test_bad_config_exit_code(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestCliSimulate:
    def test_losses_outputs(self, cli_ws):
        cfg, out = cli_ws
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--samples", "20000", "--seed", "5"])
        assert code == EXIT_OK
        header, rows = _read_csv(out / "losses.csv")
        assert header[:5] == ["agent", "total", "quantization",
                              "communication", "cross"]
        for r in rows:
            total, quant, comm, cross = map(float, r[1:5])
            assert total == pytest.approx(quant + comm + cross, abs=1e-12)

    def test_missing_state_exit_code(self, cli_ws, tmp_path):
        cfg, _out = cli_ws
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_MISSING_STATE

    def test_state_from_another_config(self, cli_ws, tmp_path, capsys):
        # the two-agent state does not fit the five-agent reference game
        _cfg, out = cli_ws
        code = main(["simulate", "--config", str(REFERENCE_CONFIG), "--out", str(tmp_path),
                     "--state", str(out / "state.json"), "--samples", "1000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "agents [1, 2]" in err

    def test_truncated_state_file(self, cli_ws, tmp_path, capsys):
        cfg, out = cli_ws
        text = (out / "state.json").read_text()
        broken = tmp_path / "state.json"
        broken.write_text(text[: len(text) // 2])
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--state", str(broken), "--samples", "1000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_bad_sample_count(self, cli_ws):
        cfg, out = cli_ws
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--samples", "0"])
        assert code == EXIT_CONFIG


class TestCliChains:
    def test_probes_and_chain_trace(self, cli_ws):
        cfg, out = cli_ws
        code = main(["chains", "--config", str(cfg), "--out", str(out),
                     "--chain", "1,2"])
        assert code == EXIT_OK
        header, rows = _read_csv(out / "probes.csv")
        assert header == ["source", "target", "n_chains", "spread", "worst_input"]
        assert len(rows) == 2  # both ordered pairs are connected
        doc = json.loads((out / "chains.json").read_text())
        assert "shared_vocabulary" in doc and "witness_intervals" in doc
        header, rows = _read_csv(out / "chain.csv")
        assert header == ["x", "final_word", "translation_loss", "word_drift",
                          "cell", "bound"]
        assert len(rows) == 101


class TestCliAnalyze:
    def test_pairs_table(self, cli_ws):
        cfg, out = cli_ws
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        header, rows = _read_csv(out / "pairs.csv")
        assert header == ["agent_i", "agent_j", "hellinger", "msd_physical",
                          "msd_equilibrium"]
        assert len(rows) == 1
        h = float(rows[0][2])
        assert 0.0 < h < 1.0


class TestCliVerify:
    def test_certificate(self, cli_ws):
        cfg, out = cli_ws
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     "--samples", "50000", "--seed", "3"])
        assert code == EXIT_OK
        header, rows = _read_csv(out / "verify.csv")
        assert header == ["agent", "observed_residual", "br_distance",
                          "true_residual", "true_residual_se"]
        doc = json.loads((out / "verify.json").read_text())
        assert doc["converged"] is True
        assert "stability" in doc
        for r, se in zip(doc["true_residuals"], doc["true_residual_ses"]):
            assert r < 4.0 * se + 1e-3
