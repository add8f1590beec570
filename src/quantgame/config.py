"""Experiment configuration (YAML key/value document) and plain-text
state persistence.

State files are JSON with full-precision floats so a solved equilibrium
round-trips bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import List, Sequence

import numpy as np
import yaml

from .densities import BetaDensity, KernelShape, NoiseKernel
from .game import SCHEDULE_POLICIES, GameState, QuantizationGame, observed_mixture
from .game import refresh_state  # noqa: F401  (bound here for perfbench's tracer)
from .networks import AgentSpec, CommMatrix, check_usage
from .quantizers import RegularQuantizer


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class SolverSettings:
    tol: float = 1e-9
    max_sweeps: int = 200
    schedule_policy: str = "cyclic"
    n_starts: int = 8


@dataclass
class MonteCarloSettings:
    n_samples: int = 100_000
    seed: int = 0


@dataclass
class OutputSettings:
    directory: str = "out"


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


def _section(where, value, build, kind=dict):
    """build(value) for the config section `where`.

    A value that is not a `kind`, a missing field, or a ValueError or
    TypeError from the library's own checks raises ConfigError naming
    the section; a ConfigError raised by `build` passes through.
    """
    if not isinstance(value, kind):
        raise ConfigError(f"{where} must be a {'list' if kind is list else 'mapping'}, "
                          f"got {type(value).__name__}")
    try:
        return build(value)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing field {exc} in {where}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _number(name: str, value, kind):
    """`value` as a `kind`, int or float: never from a boolean, nor an int
    from a fraction, nor outside the bounds `LEAST` and `MOST` may set for `name`."""
    if isinstance(value, bool) or kind is int and (
            not isinstance(value, (int, float)) or value % 1 != 0):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    number = kind(value)
    if name in MOST and number > MOST[name]:
        raise ValueError(f"{name} must be at most {MOST[name]}, got {value!r}")
    if name in LEAST and not LEAST[name] <= number < np.inf:
        raise ValueError(f"{name} must be finite and at least {LEAST[name]}, got {number}")
    return number


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _agent(n: int, entry) -> AgentSpec:
    return AgentSpec(id=_number("id", entry.get("id", n), int),
                     physical=BetaDensity(_number("alpha", entry["alpha"], float),
                                          _number("beta", entry["beta"], float)),
                     levels=_number("levels", entry["levels"], int))


def _stochastic_row(n: int, row) -> np.ndarray:
    """One comm_matrix row; a sum off 1 by at most 1e-6 is renormalized."""
    if len(row) != n:
        raise ValueError(f"has {len(row)} entries, expected {n}")
    vals = np.asarray([_number(f"entry {c}", v, float) for c, v in enumerate(row)])
    s = float(vals.sum())
    if not abs(s - 1.0) <= 1e-6:
        raise ValueError(f"sums to {s!r}, expected 1")
    return vals if s == 1.0 else vals / s


def _comm_matrix(n: int, rows) -> CommMatrix:
    if len(rows) != n:
        raise ValueError(f"has {len(rows)} rows for {n} agents")
    return CommMatrix(np.array(
        [_section(f"comm_matrix row {r}", row, partial(_stochastic_row, n), list)
         for r, row in enumerate(rows)]).reshape(n, n))


def _noise(doc) -> NoiseKernel:
    shape = str(doc.get("shape", "point"))
    try:
        shape = KernelShape(shape)
    except ValueError:
        raise ConfigError(f"noise.shape must be one of "
                          f"{[s.value for s in KernelShape]}, got {shape!r}")
    return NoiseKernel(shape, _number("halfwidth", doc.get("halfwidth", 0.0), float))


# smallest accepted (finite) value of each numeric setting, and of a state's sweep count
LEAST = {"tol": 0.0, "max_sweeps": 1, "n_starts": 1, "n_samples": 1, "seed": 0, "iteration": 0}
# largest accepted word and start counts, which size every design's (starts,
# levels) arrays, and sample count (reference.cfg's 5 x 10^9 paths take 12 min):
# far above the paper's runs, so that only a typo fails here
MOST = {"levels": 1000, "n_starts": 1000, "n_samples": 10**9}


def _settings(cls, doc):
    """`cls` from its config section: each given field takes the type of
    its default (a string as is, a number by `_number`), absent fields keep
    the default, other keys are ignored."""
    return cls(**{f.name: _string(f.name, doc[f.name]) if isinstance(f.default, str)
                  else _number(f.name, doc[f.name], type(f.default))
                  for f in fields(cls) if f.name in doc})


# libyaml's parser where PyYAML was built with it: the same safe resolver
# and constructors as yaml.SafeLoader, so the same documents, parsed
# several times faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line for a YAML error, in the same form under both loaders;
    PyYAML's own text spans several lines and differs between them."""
    if isinstance(exc, yaml.reader.ReaderError):
        return f"position {exc.position}: {exc.reason}"
    if isinstance(exc, yaml.MarkedYAMLError) and exc.problem_mark is not None:
        mark = exc.problem_mark
        what = ", ".join(filter(None, (exc.context, exc.problem)))
        return f"line {mark.line + 1}, column {mark.column + 1}: {what}"
    return " ".join(str(exc).split())


# deepest nesting of collections that a config may have: PyYAML's own
# composer recurses once per level and fails near 500 levels, libyaml's
# crashes the process some ten thousand levels further in
_MAX_DEPTH = 200


def _check_depth(data: bytes) -> None:
    """Raise a YAML error at the first collection nested deeper than
    _MAX_DEPTH, found by a scan of the event stream, which neither parser
    runs by recursion. Every collection opens at one of the bytes
    [ { - : ?, so a document with few of them, as every ordinary config
    is, is not scanned."""
    if sum(data.count(c) for c in b"[{-:?") <= _MAX_DEPTH:
        return
    depth = 0
    for event in yaml.parse(data, _YAML_LOADER):
        depth += (isinstance(event, yaml.CollectionStartEvent)
                  - isinstance(event, yaml.CollectionEndEvent))
        if depth > _MAX_DEPTH:
            raise yaml.parser.ParserError(
                None, None, f"collections nested deeper than {_MAX_DEPTH} levels",
                event.start_mark)


def _check_keys(root: yaml.Node) -> None:
    """Raise a YAML error at the first key, in document order, that some
    mapping of the node graph repeats; PyYAML would keep its last value
    and drop the others. Keys compare as resolved scalars: (tag, text)."""
    repeated, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.ScalarNode) or id(node) in seen:
            continue
        seen.add(id(node))  # an alias may close a cycle
        if isinstance(node, yaml.MappingNode):
            keys = set()
            for key, value in node.value:
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in keys:
                        repeated.append(key)
                    keys.add((key.tag, key.value))
                stack += key, value
        else:
            stack += node.value
    if repeated:
        key = min(repeated, key=lambda k: k.start_mark.index)
        raise yaml.constructor.ConstructorError(
            None, None, f"duplicate key {key.value!r}", key.start_mark)


def load_config(path) -> ExperimentConfig:
    try:
        # bytes, so that the parser detects the encoding (UTF-8 or a
        # UTF-16 byte-order mark), not the locale
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    try:
        _check_depth(data)
        loader = _YAML_LOADER(data)  # PyYAML's own reader decodes here
        try:
            node = loader.get_single_node()
            if node is not None:
                _check_keys(node)
            doc = None if node is None else loader.construct_document(node)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {_yaml_problem(exc)}") from exc
    except (ValueError, LookupError, AttributeError) as exc:
        # a value that its tag rejects (`!!float abc`, `!!bool maybe`, a
        # timestamp such as 2001-13-45): PyYAML's safe constructors raise
        # these from inside the last node they entered
        node = next(reversed(loader.recursive_objects))
        mark, tag = node.start_mark, node.tag.replace("tag:yaml.org,2002:", "!!")
        raise ConfigError(f"cannot parse {path}: line {mark.line + 1}, column "
                          f"{mark.column + 1}: {node.value!r} is not a valid {tag}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")

    entries = _section("agents", _require(doc, "agents", "config"), list, list)
    if not entries:
        raise ConfigError("agents must list at least one agent")
    agents = [_section(f"agents[{n}]", entry, partial(_agent, n))
              for n, entry in enumerate(entries)]
    if len({a.id for a in agents}) != len(agents):
        raise ConfigError("agent ids must be unique")

    comm = _section("comm_matrix", _require(doc, "comm_matrix", "config"),
                    partial(_comm_matrix, len(agents)), list)

    noise = _section("noise", doc.get("noise") or {}, _noise)
    solver = _section("solver", doc.get("solver") or {}, partial(_settings, SolverSettings))
    if solver.schedule_policy not in SCHEDULE_POLICIES:
        raise ConfigError(f"solver.schedule_policy {solver.schedule_policy!r} unknown")
    mc = _section("montecarlo", doc.get("montecarlo") or {},
                  partial(_settings, MonteCarloSettings))
    outputs = _section("outputs", doc.get("outputs") or {}, partial(_settings, OutputSettings))
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
        iteration = _number("iteration", doc["iteration"], int)
        last_max_move = _number("last_max_move", doc["last_max_move"], float)
        if not last_max_move >= 0.0:  # nan fails; an unswept state's inf passes
            raise ValueError(f"last_max_move must be at least 0, got {last_max_move!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read state file {path}: {exc!r}") from exc
    expected = [a.id for a in game.agents]
    if ids != expected:
        raise ConfigError(f"state file {path} is for agents {ids}, "
                          f"the config has {expected}")
    if len(quantizers) != len(ids) or len(usage) != len(ids):
        raise ConfigError(f"state file {path} does not hold one quantizer and "
                          f"one usage vector per agent")
    try:
        for q, u, agent in zip(quantizers, usage, game.agents):
            if q.levels != agent.levels or u.shape != (agent.levels,):
                raise ValueError(f"agent {agent.id} needs {agent.levels} words and usage entries")
            check_usage(agent.id, u)
        # building each observed mixture checks that every word fits the noise kernel
        for i in range(game.n_agents):
            observed_mixture(i, game, quantizers, usage)
    except ValueError as exc:
        raise ConfigError(f"state file {path}: {exc}") from exc
    return GameState(quantizers, usage, iteration, last_max_move)
