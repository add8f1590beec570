"""Configuration parsing, state persistence, and the CLI subcommands
(outputs, column orders, exit codes)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from quantgame import (
    CommMatrix,
    ConfigError,
    RegularQuantizer,
    bootstrap,
    config,
    load_config,
    load_state,
    quantizers,
    save_state,
)
from quantgame.cli import (
    EXIT_CONFIG,
    EXIT_MISSING_STATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from quantgame.montecarlo import (
    NoChainError,
    ProbeReport,
    chain_translate,
    path_dependence_probe,
    path_dependence_probes,
)

from conftest import IDENTITY_CONFIG, REFERENCE_CONFIG, ROOT, TRIANGULAR_NOISE_FIXTURE
from oracles import enumerated_probe
from strategies import PROPERTY_SETTINGS, games

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

# (old, new): SMALL_CONFIG with `old` replaced by `new` parses as YAML but
# describes no valid experiment
MALFORMED = [
    ("alpha: 8.0", "alpha: abc"),
    ("levels: 4", "levels: x"),
    ("tol: 1.0e-9", "tol: abc"),
    ("n_starts: 4", "n_starts: 0"),
    ("[0.85, 0.15]", "[0.85, abc]"),
    ("[0.85, 0.15]", "[.nan, 0.15]"),
    ("shape: point, halfwidth: 0.0", "shape: uniform, halfwidth: 0"),
    ("shape: point, halfwidth: 0.0", "shape: uniform, halfwidth: -0.1"),
    ("halfwidth: 0.0", "halfwidth: 0.1"),
    ("{id: 1, alpha: 8.0, beta: 2.0, levels: 4}", "5"),
    ("solver: {tol: 1.0e-9, max_sweeps: 60, schedule_policy: cyclic, "
     "n_starts: 4, seed: 0}", "solver: 5"),
    ("noise: {shape: point, halfwidth: 0.0}", "noise: 5"),
    ("montecarlo: {n_samples: 20000, seed: 5}", "montecarlo: [1]"),
    ("montecarlo: {n_samples: 20000, seed: 5}", "montecarlo: {seed: -1}"),
    ("outputs: {directory: out, formats: [csv, json]}", "outputs: x"),
    ("  - {id: 1, alpha: 8.0, beta: 2.0, levels: 4}\n"
     "  - {id: 2, alpha: 2.0, beta: 8.0, levels: 4}\n", " 5\n"),
    ("  - [0.85, 0.15]\n  - [0.15, 0.85]\n", " 5\n"),
    ("alpha: 8.0", "alpha: .inf"),
    ("shape: point, halfwidth: 0.0", "shape: uniform, halfwidth: .nan"),
    ("  - {id: 1, alpha: 8.0, beta: 2.0, levels: 4}\n"
     "  - {id: 2, alpha: 2.0, beta: 8.0, levels: 4}\n"
     "comm_matrix:\n  - [0.85, 0.15]\n  - [0.15, 0.85]\n",
     " []\ncomm_matrix: []\n"),
    ("levels: 4", "levels: 6.7"),
    ("levels: 4", "levels: true"),
    ("id: 1", "id: 1.5"),
    ("max_sweeps: 60", "max_sweeps: 2.9"),
    ("max_sweeps: 60", "max_sweeps: 0"),
    ("n_starts: 4", "n_starts: true"),
    ("n_samples: 20000", "n_samples: 20000.5"),
    ("seed: 5", "seed: true"),
    ("tol: 1.0e-9", "tol: -1.0e-9"),
    ("tol: 1.0e-9", "tol: .nan"),
    ("tol: 1.0e-9", "tol: .inf"),
    ("alpha: 8.0", "alpha: true"),
    ("shape: point, halfwidth: 0.0", "shape: uniform, halfwidth: true"),
    ("tol: 1.0e-9", "tol: true"),
    ("[0.85, 0.15]", "[true, false]"),
    ("directory: out", "directory: null"),
    ("levels: 4", "levels: 100000000000000000000000"),
    ("levels: 4", f"levels: {config.MOST['levels'] + 1}"),
    ("n_starts: 4", "n_starts: 100000000000000000000000"),
    ("n_starts: 4", f"n_starts: {config.MOST['n_starts'] + 1}"),
    ("n_samples: 20000", "n_samples: 100000000000000000000000"),
    ("n_samples: 20000", f"n_samples: {config.MOST['n_samples'] + 1}"),
    ("agents:\n", "agent:\n"),
    ("comm_matrix:", "comm_matrx:"),
    (SMALL_CONFIG, "[1, 2]\n"),
    ("id: 2", "id: 1"),
    ("schedule_policy: cyclic", "schedule_policy: random"),
    ("[0.85, 0.15]", "[0.85, 0.15, 0.0]"),
    ("  - [0.15, 0.85]\n", ""),
]
MALFORMED_IDS = ["alpha-text", "levels-text", "tol-text", "no-starts", "entry-text", "entry-nan",
                 "uniform-zero-width", "negative-width", "point-with-width",
                 "agent-not-mapping", "solver-scalar", "noise-scalar", "montecarlo-list",
                 "negative-seed", "outputs-text", "agents-scalar", "matrix-scalar",
                 "alpha-inf", "width-nan", "no-agents", "levels-fraction", "levels-bool",
                 "id-fraction", "sweeps-fraction", "no-sweeps", "starts-bool",
                 "samples-fraction", "seed-bool", "tol-negative", "tol-nan", "tol-inf",
                 "alpha-bool", "width-bool", "tol-bool", "entry-bool", "directory-null",
                 "levels-1e23", "levels-over-bound", "starts-1e23", "starts-over-bound",
                 "samples-1e23", "samples-over-bound", "no-agents-field", "no-matrix-field",
                 "root-list", "duplicate-ids", "unknown-policy", "row-length", "row-count"]

# config bytes that no YAML loader accepts, with the start of the one-line
# message after the file name; the problem text itself differs between
# libyaml and PyYAML's own parser
UNPARSABLE = {
    "unclosed-flow": (SMALL_CONFIG.replace("agents:\n", "agents: [\n", 1).encode(),
                      "line 2, column 3: "),
    "tab-indent": (SMALL_CONFIG.replace("  - {id: 1", "\t- {id: 1", 1).encode(),
                   "line 2, column 1: "),
    "open-quote": (SMALL_CONFIG.replace("directory: out", "directory: 'out", 1).encode(),
                   "line 11, column 1: "),
    "two-documents": ((SMALL_CONFIG + "---\n" + SMALL_CONFIG).encode(), "line 11, column 1: "),
    "latin-1": (b"# caf\xe9\n" + SMALL_CONFIG.encode(), "position "),
    # values that their tag rejects: PyYAML's constructors raise plain
    # ValueError, KeyError or AttributeError on these, not a YAML error
    "float-tag": (SMALL_CONFIG.replace("alpha: 8.0", "alpha: !!float abc", 1).encode(),
                  "line 2, column 20: 'abc' is not a valid !!float"),
    "int-tag": (SMALL_CONFIG.replace("id: 1", "id: !!int x", 1).encode(),
                "line 2, column 10: 'x' is not a valid !!int"),
    "bool-tag": (SMALL_CONFIG.replace("seed: 5", "seed: !!bool maybe", 1).encode(),
                 "line 9, column 38: 'maybe' is not a valid !!bool"),
    "timestamp-tag": (SMALL_CONFIG.replace("directory: out",
                                           "directory: !!timestamp 2001-13-45", 1).encode(),
                      "line 10, column 22: '2001-13-45' is not a valid !!timestamp"),
    # PyYAML itself would keep the last value, levels: 4
    "duplicate-key": (SMALL_CONFIG.replace("levels: 4}", "levels: 3, levels: 4}", 1).encode(),
                      "line 2, column 47: duplicate key 'levels'"),
}
# PyYAML's own parser, and libyaml's where PyYAML was built with it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

# three agents that almost never listen to themselves (diagonals 0.01)
LOOP_CONFIG = """\
agents:
  - {id: 1, alpha: 2.0, beta: 3.0, levels: 4}
  - {id: 2, alpha: 3.0, beta: 3.0, levels: 4}
  - {id: 3, alpha: 4.0, beta: 3.0, levels: 4}
comm_matrix:
  - [0.01, 0.50, 0.49]
  - [0.495, 0.01, 0.495]
  - [0.60, 0.39, 0.01]
noise: {shape: point, halfwidth: 0.0}
solver: {tol: 1.0e-9, max_sweeps: 50, schedule_policy: cyclic, n_starts: 2}
montecarlo: {n_samples: 20000, seed: 5}
outputs: {directory: out}
"""

# three agents with 4, 5 and 4 words under triangular noise
MIXED_LEVELS_CONFIG = """\
agents:
  - {id: 1, alpha: 2.0, beta: 5.0, levels: 4}
  - {id: 2, alpha: 3.0, beta: 3.0, levels: 5}
  - {id: 3, alpha: 5.0, beta: 2.0, levels: 4}
comm_matrix:
  - [0.8, 0.1, 0.1]
  - [0.15, 0.7, 0.15]
  - [0.1, 0.2, 0.7]
noise: {shape: triangular, halfwidth: 0.02}
solver: {tol: 1.0e-9, max_sweeps: 60, schedule_policy: cyclic, n_starts: 2}
montecarlo: {n_samples: 20000, seed: 5}
outputs: {directory: out}
"""

# conftest.triangular_noise_game, whose solved state is committed
TRIANGULAR_NOISE_CONFIG = """\
agents:
  - {id: 1, alpha: 2.0, beta: 5.0, levels: 5}
  - {id: 2, alpha: 3.0, beta: 3.0, levels: 5}
  - {id: 3, alpha: 5.0, beta: 2.0, levels: 5}
comm_matrix:
  - [0.8, 0.1, 0.1]
  - [0.15, 0.7, 0.15]
  - [0.1, 0.2, 0.7]
noise: {shape: triangular, halfwidth: 0.02}
solver: {tol: 1.0e-9, max_sweeps: 60, schedule_policy: cyclic, n_starts: 2}
montecarlo: {n_samples: 20000, seed: 5}
outputs: {directory: out}
"""

# two agents that only hear each other: no path reaches a physical source
CYCLE_CONFIG = """\
agents:
  - {id: 1, alpha: 2.0, beta: 5.0, levels: 3}
  - {id: 2, alpha: 5.0, beta: 2.0, levels: 3}
comm_matrix:
  - [0.0, 1.0]
  - [1.0, 0.0]
noise: {shape: point, halfwidth: 0.0}
solver: {tol: 1.0e-9, max_sweeps: 50, schedule_policy: cyclic, n_starts: 2}
montecarlo: {n_samples: 1000, seed: 5}
outputs: {directory: out}
"""
CYCLE_MESSAGE = ("agent 1: all 1000 samples outlasted 64 hops: a closed "
                 "communication cycle with no physical observation\n")


def _solved_cycle(tmp_path, capsys):
    cfg = tmp_path / "cycle.cfg"
    cfg.write_text(CYCLE_CONFIG)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    return cfg


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


@pytest.fixture(scope="session")
def identity_state(tmp_path_factory):
    """The state 'solve' saves for the three isolated agents of identity.cfg."""
    out = tmp_path_factory.mktemp("identity")
    assert main(["solve", "--config", str(IDENTITY_CONFIG), "--out", str(out)]) == EXIT_OK
    return out / "state.json"


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

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_parses_with_libyaml(self, monkeypatch):
        parsed = []
        single = yaml.CSafeLoader.get_single_node

        def spy(loader):
            parsed.append(type(loader))
            return single(loader)

        monkeypatch.setattr(yaml.CSafeLoader, "get_single_node", spy)
        load_config(REFERENCE_CONFIG)
        assert parsed == [yaml.CSafeLoader]

    def test_loader_documents_match_safe_loader(self):
        def typed(node):
            if isinstance(node, dict):
                return {key: typed(value) for key, value in node.items()}
            if isinstance(node, list):
                return [typed(value) for value in node]
            return type(node), repr(node)  # repr, so that NaN equals NaN

        texts = [Path(path).read_text() for path in (REFERENCE_CONFIG, IDENTITY_CONFIG)]
        texts += [SMALL_CONFIG.replace(old, new, 1) for old, new in MALFORMED]
        for text in texts:
            data = text.encode()
            assert (typed(yaml.load(data, Loader=config._YAML_LOADER))
                    == typed(yaml.load(data, Loader=yaml.SafeLoader)))

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

    def test_integral_floats_accepted(self, tmp_path):
        p = tmp_path / "float.cfg"
        p.write_text(SMALL_CONFIG.replace("levels: 4", "levels: 4.0", 1)
                     .replace("max_sweeps: 60", "max_sweeps: 60.0"))
        cfg = load_config(p)
        assert cfg.agents[0].levels == 4 and type(cfg.agents[0].levels) is int
        assert cfg.solver.max_sweeps == 60 and type(cfg.solver.max_sweeps) is int

    def test_numeric_strings_accepted(self, tmp_path):
        # a quoted number reads as that number in every float field,
        # comm_matrix entries included
        p = tmp_path / "quoted.cfg"
        p.write_text(SMALL_CONFIG.replace("[0.85, 0.15]", "['0.85', 0.15]", 1)
                     .replace("tol: 1.0e-9", "tol: '1.0e-9'"))
        cfg = load_config(p)
        assert cfg.comm.entries[0].tolist() == [0.85, 0.15]
        assert cfg.solver.tol == 1e-9

    def test_size_bounds_accepted(self, tmp_path):
        p = tmp_path / "large.cfg"
        p.write_text(SMALL_CONFIG.replace("levels: 4", f"levels: {config.MOST['levels']}", 1)
                     .replace("n_starts: 4", f"n_starts: {config.MOST['n_starts']}")
                     .replace("n_samples: 20000", f"n_samples: {config.MOST['n_samples']}"))
        cfg = load_config(p)
        assert cfg.agents[0].levels == config.MOST["levels"]
        assert cfg.solver.n_starts == config.MOST["n_starts"]
        assert cfg.montecarlo.n_samples == config.MOST["n_samples"]

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

    def test_sweep_log_ends_at_saved_state(self, cli_ws):
        _cfg, out = cli_ws
        _header, rows = _read_csv(out / "sweeps.csv")
        n = json.loads((out / "report.json").read_text())["sweeps"]
        assert sorted({int(r[0]) for r in rows}) == list(range(n + 1))
        saved = json.loads((out / "state.json").read_text())
        for agent, rec in zip((1, 2), saved["quantizers"]):
            logged = [float(r[4]) for r in rows
                      if int(r[0]) == n and int(r[1]) == agent and r[2] == "word"]
            assert logged == rec["words"]

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

    def test_capped_response_exit_code(self, tmp_path, capsys, monkeypatch):
        # two Lloyd steps per design: the sweeps settle below --tol while
        # every agent's last response still stops at the cap
        monkeypatch.setattr(quantizers, "_MULTI_MAX_ITERS", 2)
        code = main(["solve", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--tol", "1e-3"])
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("did not converge in sweep ")
        assert err.endswith(": the best response of agents 1, 2, 3 stopped at the "
                            "Lloyd-Max iteration cap without settling\n")

    def test_bad_config_exit_code(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("old, new", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_config_exit_code(self, tmp_path, capsys, old, new):
        assert old in SMALL_CONFIG
        p = tmp_path / "bad.cfg"
        p.write_text(SMALL_CONFIG.replace(old, new, 1))
        code = main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("case", [*UNPARSABLE, "directory"])
    def test_unparsable_config_exit_code(self, tmp_path, capsys, monkeypatch, loader, case):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        if case == "directory":
            p, where = tmp_path, f"cannot read config file {tmp_path}: "
        else:
            p = tmp_path / "bad.cfg"
            data, location = UNPARSABLE[case]
            p.write_bytes(data)
            where = f"cannot parse {p}: {location}"
        code = main(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_deep_nesting_exit_code(self, tmp_path, loader):
        # 50,000 nested lists would crash libyaml's composer and exhaust
        # the recursion limit of PyYAML's own; run in a subprocess, so that
        # a crash fails this test and not the whole run
        p = tmp_path / "deep.cfg"
        p.write_text("a: " + "[" * 50_000 + "]" * 50_000)
        script = ("import sys, yaml\n"
                  "from quantgame import config\n"
                  "from quantgame.cli import main\n"
                  f"config._YAML_LOADER = yaml.{loader.__name__}\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", "--config", str(p),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (f"config error: cannot parse {p}: line 1, column 203: "
                               "collections nested deeper than 200 levels\n")

    @pytest.mark.parametrize("args", [
        ["--max-sweeps", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ], ids=["no-sweeps", "tol-negative", "tol-nan", "tol-inf"])
    def test_bad_solve_flags_exit_code(self, cli_ws, tmp_path, capsys, args):
        cfg, _out = cli_ws
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)] + args)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "state.json").exists()  # rejected before any work

    @pytest.mark.parametrize("args, message", [
        (["--tol", "-1"], "--tol must be finite and at least 0, got -1.0"),
        (["--max-sweeps", "0"], "--max-sweeps must be finite and at least 1, got 0"),
    ])
    def test_bad_solve_flag_message(self, tmp_path, capsys, args, message):
        # flags that override a config setting share its minimum, config.LEAST
        code = main(["solve", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path)] + args)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("args", [
        ["solve", "--config", str(IDENTITY_CONFIG), "--max-sweeps", "2.5"],
        ["simulate", "--config", str(IDENTITY_CONFIG), "--samples", "x"],
        ["solve", "--config", str(IDENTITY_CONFIG), "--tol", "abc"],
        ["solve"],
        ["translate", "--config", str(IDENTITY_CONFIG)],
    ], ids=["sweeps-fraction", "samples-text", "tol-text", "no-config", "no-command"])
    def test_bad_command_line_exit_code(self, tmp_path, capsys, args):
        # argparse's own rejections end in one line, as the checks of ours do
        code = main(args + ["--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("quantgame")
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["solve", "--help"]) == EXIT_OK
        assert "--max-sweeps" in capsys.readouterr().out

    def test_starved_cell_exit_code(self, tmp_path, capsys):
        # agent 1 hears only its peer, whose four words leave a cell empty
        p = tmp_path / "starved.cfg"
        p.write_text(SMALL_CONFIG.replace("[0.85, 0.15]", "[0.0, 1.0]", 1))
        code = main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "carries mass" in err and err.count("\n") == 1

    def test_extreme_beta_source(self, tmp_path, capsys):
        # Beta(1, 0.001) piles its mass against 1, where the quantile start
        # stacks all four words
        p = tmp_path / "extreme.cfg"
        p.write_text(SMALL_CONFIG.replace("alpha: 8.0, beta: 2.0", "alpha: 1.0, beta: 0.001", 1))
        code = main(["solve", "--config", str(p), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert (captured.out + captured.err).count("\n") == 1

    def test_noise_too_wide_exit_code(self, tmp_path, capsys):
        # a valid uniform kernel whose support around the outer words
        # leaves (0, 1): found when the first sweep builds an observed mixture
        p = tmp_path / "wide.cfg"
        p.write_text(SMALL_CONFIG.replace("shape: point, halfwidth: 0.0",
                                          "shape: uniform, halfwidth: 0.3", 1))
        code = main(["solve", "--config", str(p), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "leaves the unit interval" in err and err.count("\n") == 1


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

    @pytest.mark.parametrize("field,k", [("words", 0), ("boundaries", 1)])
    def test_non_finite_state_entry(self, identity_state, tmp_path, capsys, field, k):
        # json writes and reads nan as NaN; no peer hears agent 1 in
        # identity.cfg, so only the quantizer itself can reject it
        doc = json.loads(identity_state.read_text())
        doc["quantizers"][0][field][k] = float("nan")
        broken = tmp_path / "state.json"
        broken.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(broken), "--samples", "1000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "losses.csv").exists()

    @pytest.mark.parametrize("key, k, entry, message", [
        # agent 2 of identity.cfg is heard by no one, so no observed
        # mixture holds its usage
        ("usage", 1, [0.5] * 6, "usage vector of agent 2 sums to 3.0, expected 1"),
        ("usage", 1, [1.5, -0.5, 0, 0, 0, 0], "usage vector of agent 2 sums to 1.0, expected 1"),
        ("usage", 2, None, "does not hold one quantizer and one usage vector per agent"),
        ("quantizers", 2, None, "does not hold one quantizer and one usage vector per agent"),
        ("usage", 0, [0.2] * 5, "agent 1 needs 6 words and usage entries"),
    ], ids=["usage-sums-3", "usage-negative", "usage-missing", "quantizer-missing",
            "usage-short"])
    def test_malformed_state_file(self, identity_state, tmp_path, capsys, key, k, entry,
                                  message):
        # entry None deletes doc[key][k]
        doc = json.loads(identity_state.read_text())
        if entry is None:
            del doc[key][k]
        else:
            doc[key][k] = entry
        broken = tmp_path / "state.json"
        broken.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(broken), "--samples", "1000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: state file {broken}") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "losses.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("iteration", -7, "iteration must be finite and at least 0, got -7"),
        ("iteration", 2.9, "iteration must be an integer, got 2.9"),
        ("iteration", True, "iteration must be an integer, got True"),
        ("last_max_move", float("nan"), "last_max_move must be at least 0, got nan"),
        ("last_max_move", -1e-3, "last_max_move must be at least 0, got -0.001"),
    ], ids=["iteration-negative", "iteration-fraction", "iteration-bool",
            "last-max-move-nan", "last-max-move-negative"])
    def test_malformed_state_scalar(self, identity_state, tmp_path, capsys, key, value,
                                    message):
        # verify would write the state's iteration as its sweep count
        doc = json.loads(identity_state.read_text())
        doc[key] = value
        broken = tmp_path / "state.json"
        broken.write_text(json.dumps(doc))
        code = main(["verify", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(broken), "--samples", "1000"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read state file {broken}")
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_sample_count_bound(self, tmp_path, capsys, command):
        # --samples shares montecarlo.n_samples' bound, config.MOST; a count
        # at the bound passes the check and stops at the missing state file
        most = config.MOST["n_samples"]
        for samples, code in ((10**23, EXIT_CONFIG), (most + 1, EXIT_CONFIG),
                              (most, EXIT_MISSING_STATE)):
            assert main([command, "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                         "--samples", str(samples)]) == code
            if code == EXIT_CONFIG:
                assert capsys.readouterr().err == (f"--samples must be at most {most}, "
                                                   f"got {samples}\n")

    def test_one_sample_exit_code(self, identity_state, tmp_path, capsys):
        # one accepted sample gives no standard error: a NaN helps no one
        code = main(["simulate", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(identity_state), "--samples", "1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "agent 1" in err and "--samples" in err
        assert not (tmp_path / "losses.json").exists()

    def test_two_samples_write_strict_json(self, identity_state, tmp_path):
        code = main(["simulate", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(identity_state), "--samples", "2"])
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        doc = json.loads((tmp_path / "losses.json").read_text(), parse_constant=reject)
        assert [rep["n_samples"] for rep in doc["reports"]] == [2, 2, 2]

    def test_negative_seed(self, cli_ws, tmp_path, capsys):
        cfg, out = cli_ws
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--state", str(out / "state.json"), "--seed", "-3"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "losses.json").exists()

    def test_closed_cycle_exit_code(self, tmp_path, capsys):
        # every sample outlasts the hop cap: a NaN report helps no one
        cfg = _solved_cycle(tmp_path, capsys)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == CYCLE_MESSAGE
        assert not (tmp_path / "losses.csv").exists()


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

    def test_noisy_chain_ignores_montecarlo_seed(self, tmp_path):
        # chains draws nothing under channel noise, so the config's
        # montecarlo seed leaves chain.csv as it is
        tables = {}
        for seed in ("7", "0"):
            cfg = tmp_path / f"noisy-{seed}.cfg"
            cfg.write_text(SMALL_CONFIG.replace("shape: point, halfwidth: 0.0",
                                                "shape: uniform, halfwidth: 0.02")
                           .replace("seed: 5", f"seed: {seed}"))
            if seed == "7":
                assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
            out = tmp_path / f"seed-{seed}"
            code = main(["chains", "--config", str(cfg), "--out", str(out), "--state",
                         str(tmp_path / "state.json"), "--chain", "1,2"])
            assert code == EXIT_OK
            tables[seed] = (out / "chain.csv").read_bytes()
        assert tables["7"] == tables["0"]

    def test_noisy_chain_trace_matches_loop(self, tmp_path):
        # under channel noise chain.csv holds chain_translate's exact
        # expectations, not draws: two runs write the same bytes, and each
        # row is what translating its input alone, in grid order, gives
        cfg = tmp_path / "triangular.cfg"
        cfg.write_text(TRIANGULAR_NOISE_CONFIG)
        tables = []
        for run in ("first", "second"):
            code = main(["chains", "--config", str(cfg), "--out", str(tmp_path / run), "--state",
                         str(TRIANGULAR_NOISE_FIXTURE), "--chain", "1,2,3"])
            assert code == EXIT_OK
            tables.append((tmp_path / run / "chain.csv").read_bytes())
        assert tables[0] == tables[1]
        game = load_config(cfg).game()
        qs = load_state(TRIANGULAR_NOISE_FIXTURE, game).quantizers
        _header, rows = _read_csv(tmp_path / "first" / "chain.csv")
        grid = np.linspace(0.0, 1.0, 103)[1:-1].tolist()
        assert len(rows) == len(grid)
        finals = []
        for row, x in zip(rows, grid):
            want = chain_translate(qs, [0, 1, 2], x, game.noise)
            finals.append(float(want.final_word))
            assert row == [str(float(v)) for v in (want.x, want.final_word,
                                                   want.translation_loss, want.word_drift)] + [
                str(int(want.cell_index) + 1), "" if want.bound is None else str(float(want.bound))]
        assert not np.isin(finals, qs[2].words).all()  # some are expectations

    def test_mixed_level_counts(self, tmp_path):
        # agents with different numbers of words share no vocabulary
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(MIXED_LEVELS_CONFIG)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        code = main(["chains", "--config", str(cfg), "--out", str(tmp_path),
                     "--chain", "1,2,3"])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "chains.json").read_text())
        assert doc["shared_vocabulary"] is False and doc["witness_intervals"] == []
        _header, rows = _read_csv(tmp_path / "chain.csv")
        assert len(rows) == 101 and all(row[-1] == "" for row in rows)

    @pytest.mark.parametrize("args", [
        ["--chain", "1,9"],  # unknown agent id
        ["--chain", "1,x"],  # not an integer
        ["--chain", "1"],  # a chain needs two agents
        ["--inputs", "0"],  # empty input grid
        ["--max-len", "1"],  # no chain is that short
        ["--chain", "1,2", "--seed", "1"],  # chains draws nothing, so takes no seed
        ["--chain", "1,2", "--inputs", "100000000000000000000000"],  # no such grid
        ["--inputs", "100001"],  # one above the bound
        ["--max-len", "100000000000000000000000"],  # far beyond the bound
    ], ids=["unknown-id", "not-an-id", "one-agent", "no-inputs", "max-len-1",
            "seed-not-an-option", "inputs-1e23", "inputs-over-bound", "max-len-1e23"])
    def test_bad_arguments_exit_code(self, cli_ws, tmp_path, capsys, args):
        cfg, out = cli_ws
        code = main(["chains", "--config", str(cfg), "--out", str(tmp_path),
                     "--state", str(out / "state.json")] + args)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1

    def test_max_len_bound(self, cli_ws, tmp_path, capsys):
        # the largest grid and the longest chains run: on the two-agent
        # cycle 500 chains 1 -> 2 hold 2, 4, ..., 1000 agents
        cfg, out = cli_ws
        run = ["chains", "--config", str(cfg), "--out", str(tmp_path),
               "--state", str(out / "state.json"), "--inputs", "100000"]
        assert main(run + ["--max-len", "1000"]) == EXIT_OK
        _header, rows = _read_csv(tmp_path / "probes.csv")
        assert [row[2] for row in rows] == ["500", "500"]
        capsys.readouterr()
        assert main(run + ["--max-len", "1001"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "--max-len must be at most 1000, got 1001\n"


def _probes(probe, qs, P, max_len, n_inputs):
    """`probe`'s report for every ordered pair of distinct agents, or the
    NoChainError message of a pair that no chain connects."""
    reports = {}
    for i in range(len(qs)):
        for j in range(len(qs)):
            if i != j:
                try:
                    reports[i, j] = probe(qs, P, i, j, max_len, n_inputs)
                except NoChainError as exc:
                    reports[i, j] = str(exc)
    return reports


def _assert_all_pairs(qs, P, max_len, n_inputs):
    """`path_dependence_probes`, one pass over every pair, lists in
    (source, target) order exactly the pairs for which enumerating every
    chain gives a report, with that report, and leaves out exactly the
    pairs whose `path_dependence_probe` raises NoChainError. Returns the
    per-pair reports (a NoChainError's message where no chain connects)."""
    reports = _probes(path_dependence_probe, qs, P, max_len, n_inputs)
    assert reports == _probes(enumerated_probe, qs, P, max_len, n_inputs)
    connected = [(pair, rep) for pair, rep in reports.items() if isinstance(rep, ProbeReport)]
    assert list(path_dependence_probes(qs, P, max_len, n_inputs).items()) == connected
    return reports


class TestChainCounts:
    """The chain counts, spreads and worst inputs that `chains` writes to
    probes.csv: the (agent, word) automaton of `path_dependence_probes`,
    one pass over every pair, reports what probing each pair and
    enumerating every chain report, and leaves out exactly the pairs that
    raise NoChainError."""

    @pytest.mark.parametrize("max_len", [2, 3, 4, 5, 6, 7, 8])
    def test_reference_counts_match_enumeration(self, max_len):
        game = load_config(REFERENCE_CONFIG).game()
        qs = load_state(ROOT / "perfbench" / "fixtures" / "reference_state.json",
                        game).quantizers
        reports = _assert_all_pairs(qs, game.comm, max_len, 101)
        if max_len == 5:  # the sum of probes.csv's n_chains at the default --max-len
            assert sum(rep.n_chains for rep in reports.values()) == 181

    @PROPERTY_SETTINGS
    @given(games(), st.integers(2, 6))
    def test_random_game_counts_match_enumeration(self, case, max_len):
        # words on the 1/32 grid and inputs on the 1/64 grid, so that words
        # and inputs sit exactly on cell boundaries
        game, state = case[:2]
        _assert_all_pairs(state.quantizers, game.comm, max_len, 63)

    def test_two_agent_cycle_stops_early(self):
        # each round trip climbs one cell: agent 1's cell k + 1 takes agent
        # 0's word k, agent 0's cell k + 1 takes agent 1's word k + 1, so
        # from agent 0's first cell the chains end on both of agent 1's top
        # words, and after 4 of the 9 hops no hop reaches a new state
        qs = [RegularQuantizer([0, 0.3, 0.6, 1], [0.28, 0.58, 0.9]),
              RegularQuantizer([0, 0.25, 0.55, 1], [0.1, 0.5, 0.8])]
        P = CommMatrix(np.full((2, 2), 0.5))
        reports = _assert_all_pairs(qs, P, 10, 101)
        assert reports[0, 1].n_chains == 5
        assert reports[0, 1].spread == pytest.approx(0.3)


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
                          "true_residual", "true_residual_se",
                          "true_residual_truncated"]
        assert [row[-1] for row in rows] == ["0", "0"]
        doc = json.loads((out / "verify.json").read_text())
        assert doc["converged"] is True
        assert doc["true_residual_truncated"] == [0, 0]
        assert "stability" in doc
        for r, se in zip(doc["true_residuals"], doc["true_residual_ses"]):
            assert r < 4.0 * se + 1e-3

    def test_bad_sample_count(self, cli_ws, tmp_path):
        cfg, out = cli_ws
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path),
                     "--state", str(out / "state.json"), "--samples", "0"])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "verify.json").exists()

    def test_negative_seed(self, cli_ws, tmp_path, capsys):
        cfg, out = cli_ws
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path),
                     "--state", str(out / "state.json"), "--seed", "-3"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "verify.json").exists()

    def test_truncated_samples_reported(self, tmp_path):
        # agents that almost never listen to themselves: many paths outlast
        # the depth cap, and verify must count the ones it drops exactly as
        # simulate does for the same seeds
        cfg_path = tmp_path / "loop.cfg"
        cfg_path.write_text(LOOP_CONFIG)
        cfg = load_config(cfg_path)
        save_state(bootstrap(cfg.game(), n_starts=8), cfg.agent_ids, tmp_path / "state.json")
        for cmd in ("verify", "simulate"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(tmp_path),
                         "--samples", "20000", "--seed", "5"]) == EXIT_OK
        header, rows = _read_csv(tmp_path / "verify.csv")
        truncated = [int(row[header.index("true_residual_truncated")]) for row in rows]
        header, rows = _read_csv(tmp_path / "losses.csv")
        assert truncated == [int(row[header.index("n_truncated")]) for row in rows]
        assert all(t > 0 for t in truncated)
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert doc["true_residual_truncated"] == truncated

    def test_too_few_samples_exit_code(self, identity_state, tmp_path, capsys):
        # 3 samples over 6 words leave agent 1 with no word sampled twice
        code = main(["verify", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(identity_state), "--samples", "3"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "agent 1" in err and "--samples" in err
        assert not (tmp_path / "verify.json").exists()

    def test_few_samples_write_no_nan(self, identity_state, tmp_path):
        # with 4 samples some words still get fewer than 2; the residual is
        # taken over the others
        code = main(["verify", "--config", str(IDENTITY_CONFIG), "--out", str(tmp_path),
                     "--state", str(identity_state), "--samples", "4"])
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        doc = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)
        assert all(np.isfinite(doc["true_residuals"] + doc["true_residual_ses"]))
        _header, rows = _read_csv(tmp_path / "verify.csv")
        assert all(np.isfinite(float(cell)) for row in rows for cell in row)

    def test_closed_cycle_exit_code(self, tmp_path, capsys):
        # no sample count can help, so verify must not ask for more
        cfg = _solved_cycle(tmp_path, capsys)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == CYCLE_MESSAGE
        assert not (tmp_path / "verify.json").exists()


def test_csv_tables_match_json_exactly(cli_ws, tmp_path):
    """Every CSV cell equals, as a float, the value its JSON twin holds."""
    cfg, out = cli_ws
    state = ["--config", str(cfg), "--out", str(tmp_path),
             "--state", str(out / "state.json")]
    for cmd in (["simulate", "--samples", "5000"], ["chains", "--inputs", "11"],
                ["analyze"], ["verify", "--samples", "5000"]):
        assert main(cmd[:1] + state + cmd[1:]) == EXIT_OK

    def columns(doc):  # report.json and verify.json hold one list per column
        return [{"agent": a, **{k.removesuffix("s"): v[n] for k, v in doc.items()
                                if isinstance(v, list) and k != "agents"}}
                for n, a in enumerate(doc["agents"])]

    def load(path):
        return json.loads(path.read_text())

    losses = load(tmp_path / "losses.json")
    twins = {
        out / "report.csv": columns(load(out / "report.json")),
        tmp_path / "verify.csv": columns(load(tmp_path / "verify.json")),
        tmp_path / "losses.csv": [{"agent": a, **r} for a, r in
                                  zip(losses["agents"], losses["reports"])],
        tmp_path / "pairs.csv": load(tmp_path / "pairs.json")["pairs"],
        tmp_path / "probes.csv": load(tmp_path / "chains.json")["probes"],
    }
    for path, records in twins.items():
        header, rows = _read_csv(path)
        assert len(rows) == len(records) > 0, path.name
        for row, rec in zip(rows, records):
            for key, cell in zip(header, row):
                assert float(cell) == rec[key], (path.name, key)
