"""Experiment configuration (YAML key/value document) and plain-text
state persistence.

State files are JSON with full-precision floats so a solved equilibrium
round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .densities import BetaDensity, KernelShape, NoiseKernel
from .game import GameState, QuantizationGame, observed_mixture
from .game import refresh_state  # noqa: F401  (bound here for perfbench's tracer)
from .networks import AgentSpec, CommMatrix
from .quantizers import RegularQuantizer


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class SolverSettings:
    tol: float = 1e-9
    max_sweeps: int = 200
    schedule_policy: str = "cyclic"
    n_starts: int = 8
    seed: int = 0


@dataclass
class MonteCarloSettings:
    n_samples: int = 100_000
    seed: int = 0


@dataclass
class OutputSettings:
    directory: str = "out"
    formats: Tuple[str, ...] = ("csv", "json")


@dataclass
class ExperimentConfig:
    agents: List[AgentSpec]
    comm: CommMatrix
    noise: NoiseKernel
    solver: SolverSettings
    montecarlo: MonteCarloSettings
    outputs: OutputSettings

    def game(self) -> QuantizationGame:
        return QuantizationGame(tuple(self.agents), self.comm, self.noise)

    @property
    def agent_ids(self) -> List[int]:
        return [a.id for a in self.agents]


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing field '{key}' in {where}")
    return mapping[key]


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")

    agents = []
    for n, entry in enumerate(_require(doc, "agents", "config")):
        where = f"agents[{n}]"
        alpha = float(_require(entry, "alpha", where))
        beta = float(_require(entry, "beta", where))
        levels = int(_require(entry, "levels", where))
        if alpha <= 0 or beta <= 0:
            raise ConfigError(f"{where}: beta parameters must be positive, "
                              f"got ({alpha}, {beta})")
        if levels < 1:
            raise ConfigError(f"{where}: levels must be at least 1")
        agents.append(AgentSpec(id=int(entry.get("id", n)),
                                physical=BetaDensity(alpha, beta),
                                levels=levels))
    if len({a.id for a in agents}) != len(agents):
        raise ConfigError("agent ids must be unique")

    rows = _require(doc, "comm_matrix", "config")
    n = len(agents)
    if len(rows) != n:
        raise ConfigError(f"comm_matrix has {len(rows)} rows for {n} agents")
    mat = np.zeros((n, n))
    for r, row in enumerate(rows):
        if len(row) != n:
            raise ConfigError(f"comm_matrix row {r} has {len(row)} entries, expected {n}")
        vals = np.asarray([float(v) for v in row])
        if np.any(vals < 0) or np.any(vals > 1):
            raise ConfigError(f"comm_matrix row {r} has entries outside [0, 1]")
        s = vals.sum()
        if abs(s - 1.0) > 1e-6:
            raise ConfigError(f"comm_matrix row {r} sums to {s!r}, expected 1")
        if s != 1.0:
            vals = vals / s
        mat[r] = vals
    comm = CommMatrix(mat)

    noise_doc = doc.get("noise", {}) or {}
    shape = str(noise_doc.get("shape", "point"))
    try:
        shape = KernelShape(shape)
    except ValueError:
        raise ConfigError(f"noise.shape must be one of "
                          f"{[s.value for s in KernelShape]}, got {shape!r}")
    noise = NoiseKernel(shape, float(noise_doc.get("halfwidth", 0.0)))

    solver_doc = doc.get("solver", {}) or {}
    solver = SolverSettings(
        tol=float(solver_doc.get("tol", 1e-9)),
        max_sweeps=int(solver_doc.get("max_sweeps", 200)),
        schedule_policy=str(solver_doc.get("schedule_policy", "cyclic")),
        n_starts=int(solver_doc.get("n_starts", 8)),
        seed=int(solver_doc.get("seed", 0)),
    )
    if solver.schedule_policy not in ("cyclic", "topological_if_acyclic"):
        raise ConfigError(f"solver.schedule_policy {solver.schedule_policy!r} unknown")

    mc_doc = doc.get("montecarlo", {}) or {}
    mc = MonteCarloSettings(
        n_samples=int(mc_doc.get("n_samples", 100_000)),
        seed=int(mc_doc.get("seed", 0)),
    )
    if mc.n_samples < 1:
        raise ConfigError("montecarlo.n_samples must be positive")

    out_doc = doc.get("outputs", {}) or {}
    outputs = OutputSettings(
        directory=str(out_doc.get("directory", "out")),
        formats=tuple(out_doc.get("formats", ["csv", "json"])),
    )
    return ExperimentConfig(agents, comm, noise, solver, mc, outputs)


def save_state(state: GameState, agent_ids: Sequence[int], path) -> None:
    doc = {
        "agents": list(agent_ids),
        "iteration": state.iteration,
        "last_max_move": state.last_max_move,
        "quantizers": [
            {"boundaries": q.boundaries.tolist(), "words": q.words.tolist()}
            for q in state.quantizers
        ],
        "usage": [u.tolist() for u in state.usage],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_state(path, game: QuantizationGame) -> GameState:
    """Read a state saved by `save_state` for the same game.

    The persisted usage is kept verbatim, so round-trips are bit-exact.
    Any unreadable or mismatched file raises ConfigError.
    """
    try:
        doc = json.loads(Path(path).read_text())
        ids = [int(i) for i in doc["agents"]]
        quantizers = [
            RegularQuantizer(np.asarray(q["boundaries"], dtype=float),
                             np.asarray(q["words"], dtype=float))
            for q in doc["quantizers"]
        ]
        usage = [np.asarray(u, dtype=float) for u in doc["usage"]]
        iteration = int(doc["iteration"])
        last_max_move = float(doc["last_max_move"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read state file {path}: {exc!r}") from exc
    expected = [a.id for a in game.agents]
    if ids != expected:
        raise ConfigError(f"state file {path} is for agents {ids}, "
                          f"the config has {expected}")
    if len(quantizers) != len(ids) or len(usage) != len(ids):
        raise ConfigError(f"state file {path} does not hold one quantizer and "
                          f"one usage vector per agent")
    for q, u, agent in zip(quantizers, usage, game.agents):
        if q.levels != agent.levels or u.shape != (agent.levels,):
            raise ConfigError(f"state file {path}: agent {agent.id} needs "
                              f"{agent.levels} words and usage entries")
    try:
        observed = [observed_mixture(i, game, quantizers, usage)
                    for i in range(game.n_agents)]
    except ValueError as exc:
        raise ConfigError(f"state file {path}: {exc}") from exc
    return GameState(quantizers, usage, observed, iteration, last_max_move)
