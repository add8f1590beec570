"""Command-line experiment runner.

Subcommands: solve, simulate, chains, analyze, verify. All read a YAML
experiment config; everything downstream of solve additionally needs the
state file it wrote. Outputs are CSV (header row, fixed column order) and
JSON. Exit codes: 0 success, 2 validation error (including a quantizer
cell that no source reaches, channel noise too wide for the words, too
few samples for a standard error, and an agent whose every sample
outlasts the hop cap), 3 non-convergence, 4 missing prerequisite state.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import montecarlo
from .config import LEAST, MOST, ConfigError, load_config, load_state, save_state
from .densities import DomainError, EmptyCellError, hellinger_beta
from .game import bootstrap, check_social_stability, solve_equilibrium, verify_nash

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_MISSING_STATE = 4

# accepted (finite) range of each command-line-only option; --inputs sizes the
# input grid that every probe and --chain trace reads, and --max-len is
# bounded like levels and n_starts
_RANGE = {"inputs": (1, 100_000), "max_len": (2, 1000)}
# the setting (section, name) that each other option overrides, and shares bounds with
_SETTING = {"samples": ("montecarlo", "n_samples"), "seed": ("montecarlo", "seed"),
            "max_sweeps": ("solver", "max_sweeps"), "tol": ("solver", "tol")}


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1, default=_jsonable))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _solved(args, cfg):
    """The output directory, the game, and the state 'solve' saved for it."""
    out = _outdir(args, cfg)
    path = Path(args.state) if args.state else out / "state.json"
    if not path.exists():
        print(f"state file {path} not found; run 'solve' first", file=sys.stderr)
        raise SystemExit(EXIT_MISSING_STATE)
    game = cfg.game()
    return out, game, load_state(path, game)


def _outdir(args, cfg) -> Path:
    out = Path(args.out) if args.out else Path(cfg.outputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot_rows(sweep_no, cfg, state):
    rows = []
    for aid, q, usage in zip(cfg.agent_ids, state.quantizers, state.usage):
        # words and usage entries count from 1, boundaries from 0
        for kind, values, first in (("word", q.words, 1), ("boundary", q.boundaries, 0),
                                    ("usage", usage, 1)):
            rows += [[sweep_no, aid, kind, k, v] for k, v in enumerate(values, first)]
    return rows


def _all_truncated(aid, n) -> int:
    print(f"agent {aid}: all {n} samples outlasted {montecarlo.DEPTH_CAP} hops: "
          "a closed communication cycle with no physical observation", file=sys.stderr)
    return EXIT_CONFIG


def cmd_solve(args, cfg) -> int:
    out = _outdir(args, cfg)
    state, report = solve_equilibrium(cfg.game(), **asdict(cfg.solver))
    save_state(state, cfg.agent_ids, out / "state.json")
    rows = [row for n, st in enumerate(report.history)
            for row in _snapshot_rows(n, cfg, st)]
    _write_csv(out / "sweeps.csv", ["sweep", "agent", "kind", "index", "value"], rows)
    payload = {
        "converged": report.converged,
        "sweeps": report.sweeps,
        "last_max_move": state.last_max_move,
        "observed_residuals": report.observed_residuals,
        "br_distances": report.br_distances,
        "agents": cfg.agent_ids,
    }
    _write_json(out / "report.json", payload)
    _write_csv(out / "report.csv", ["agent", "observed_residual", "br_distance"],
               zip(cfg.agent_ids, report.observed_residuals, report.br_distances))
    if not report.converged:
        ids = ", ".join(str(cfg.agent_ids[i]) for i in state.unsettled)
        print(f"did not converge in sweep {report.sweeps}: the best response of agent"
              f"{'s' * (len(state.unsettled) > 1)} {ids} stopped at the Lloyd-Max iteration "
              "cap without settling" if state.unsettled else
              f"did not converge within {cfg.solver.max_sweeps} sweeps "
              f"(last move {state.last_max_move:.3g})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"converged in {report.sweeps} sweeps; state written to {out / 'state.json'}")
    return EXIT_OK


def cmd_simulate(args, cfg) -> int:
    out, game, state = _solved(args, cfg)
    n, seed = cfg.montecarlo.n_samples, cfg.montecarlo.seed
    reports = [
        montecarlo.estimate_losses(i, state, game, n, seed=seed + i)
        for i in range(game.n_agents)
    ]
    for aid, rep in zip(cfg.agent_ids, reports):
        if rep.n_samples == 0:
            return _all_truncated(aid, n)
        if rep.n_samples < 2:
            print(f"agent {aid}: 1 accepted sample gives no standard error; "
                  f"raise --samples (now {n})", file=sys.stderr)
            return EXIT_CONFIG
    records = [asdict(r) for r in reports]
    header = ["agent"] + [f.name for f in fields(montecarlo.LossReport)]
    _write_csv(out / "losses.csv", header,
               ([aid, *rec.values()] for aid, rec in zip(cfg.agent_ids, records)))
    _write_json(out / "losses.json", {"agents": cfg.agent_ids, "reports": records})
    print(f"loss reports for {game.n_agents} agents written to {out}")
    return EXIT_OK


def cmd_chains(args, cfg) -> int:
    chain = None
    if args.chain:
        idx = {aid: i for i, aid in enumerate(cfg.agent_ids)}
        try:
            chain = [idx[int(t)] for t in args.chain.split(",")]
        except (KeyError, ValueError):
            print(f"--chain must list agent ids from {cfg.agent_ids}, "
                  f"got {args.chain!r}", file=sys.stderr)
            return EXIT_CONFIG
        if len(chain) < 2:
            print("--chain needs at least two agents", file=sys.stderr)
            return EXIT_CONFIG
    out, game, state = _solved(args, cfg)
    shared, witnesses = montecarlo.shared_vocabulary(state.quantizers)
    header = ["source", "target", "n_chains", "spread", "worst_input"]
    rows = [[cfg.agent_ids[i], cfg.agent_ids[j], rep.n_chains, rep.spread, rep.worst_input]
            for i in range(game.n_agents)
            for j, rep in montecarlo.path_dependence_probes(
                state.quantizers, game.comm, i, args.max_len, args.inputs).items()]
    _write_csv(out / "probes.csv", header, rows)
    _write_json(out / "chains.json", {"shared_vocabulary": shared, "witness_intervals": witnesses,
                                      "probes": [dict(zip(header, row)) for row in rows]})
    if chain:
        grid = np.linspace(0.0, 1.0, args.inputs + 2)[1:-1]
        rep = montecarlo.chain_translate(state.quantizers, chain, grid, noise=game.noise)
        # csv writes a bound of None as an empty field
        _write_csv(out / "chain.csv",
                   ["x", "final_word", "translation_loss", "word_drift", "cell", "bound"],
                   zip(rep.x.tolist(), rep.final_word.tolist(), rep.translation_loss.tolist(),
                       rep.word_drift.tolist(), (rep.cell_index + 1).tolist(),
                       [None] * grid.size if rep.bound is None else rep.bound.tolist()))
    print(f"{len(rows)} pair probes written to {out}; shared vocabulary: {shared}")
    return EXIT_OK


def cmd_analyze(args, cfg) -> int:
    out, game, state = _solved(args, cfg)
    base = bootstrap(game, n_starts=cfg.solver.n_starts)
    rows = []
    skipped = []
    for i in range(game.n_agents):
        for j in range(i + 1, game.n_agents):
            if cfg.agents[i].levels != cfg.agents[j].levels:
                skipped.append((cfg.agent_ids[i], cfg.agent_ids[j]))
                continue
            h = hellinger_beta(cfg.agents[i].physical, cfg.agents[j].physical)
            msd_phys = float(np.mean(
                (base.quantizers[i].words - base.quantizers[j].words) ** 2))
            msd_eq = float(np.mean(
                (state.quantizers[i].words - state.quantizers[j].words) ** 2))
            rows.append([cfg.agent_ids[i], cfg.agent_ids[j], h, msd_phys, msd_eq])
    for pair in skipped:
        print(f"skipping pair {pair}: unequal word counts", file=sys.stderr)
    header = ["agent_i", "agent_j", "hellinger", "msd_physical", "msd_equilibrium"]
    _write_csv(out / "pairs.csv", header, rows)
    _write_json(out / "pairs.json", {"pairs": [dict(zip(header, row)) for row in rows]})
    print(f"{len(rows)} agent pairs written to {out / 'pairs.csv'}")
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    out, game, state = _solved(args, cfg)
    n = cfg.montecarlo.n_samples
    report = verify_nash(state, game, tol=cfg.solver.tol, n_samples=n,
                         seed=cfg.montecarlo.seed, n_starts=cfg.solver.n_starts)
    for aid, resid, truncated in zip(cfg.agent_ids, report.true_residuals,
                                     report.true_residual_truncated):
        if truncated == n:
            return _all_truncated(aid, n)
        if np.isnan(resid):
            print(f"agent {aid}: no word got 2 accepted samples for a true "
                  f"residual; raise --samples (now {n})", file=sys.stderr)
            return EXIT_CONFIG
    stability = check_social_stability(state, game, n_starts=cfg.solver.n_starts)
    _write_csv(out / "verify.csv",
               ["agent", "observed_residual", "br_distance",
                "true_residual", "true_residual_se", "true_residual_truncated"],
               zip(cfg.agent_ids, report.observed_residuals, report.br_distances,
                   report.true_residuals, report.true_residual_ses,
                   report.true_residual_truncated))
    _write_json(out / "verify.json", {
        "agents": cfg.agent_ids,
        "observed_residuals": report.observed_residuals,
        "br_distances": report.br_distances,
        "true_residuals": report.true_residuals,
        "true_residual_ses": report.true_residual_ses,
        "true_residual_truncated": report.true_residual_truncated,
        "converged": report.converged,
        "sweeps": report.sweeps,
        "stability": asdict(stability),
    })
    print(f"verification written to {out / 'verify.json'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """One-line command-line errors, exit EXIT_CONFIG; subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quantgame",
        description="Nash-equilibrium quantizer design on communication networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_state=False):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", help="output directory (default from config)")
        if needs_state:
            p.add_argument("--state", help="state file from 'solve' "
                                           "(default <out>/state.json)")

    p = sub.add_parser("solve", help="run distributed Lloyd-Max to equilibrium")
    common(p)
    p.add_argument("--tol", type=float, help="sweep convergence tolerance")
    p.add_argument("--max-sweeps", type=int, dest="max_sweeps")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte-Carlo loss decomposition")
    common(p, needs_state=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chains", help="translation chains and path-dependence probes")
    common(p, needs_state=True)
    p.add_argument("--max-len", type=int, default=5, dest="max_len")
    p.add_argument("--inputs", type=int, default=101)
    p.add_argument("--chain", help="comma-separated agent ids to translate through")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("analyze", help="pairwise Hellinger vs word-distance table")
    common(p, needs_state=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="Nash equilibrium certificate")
    common(p, needs_state=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        bounds = {**_RANGE, **{name: (LEAST[setting], MOST.get(setting, np.inf))
                               for name, (_, setting) in _SETTING.items()}}
        for name, (least, most) in bounds.items():
            value = getattr(args, name, None)
            if value is not None and not (least <= value <= most and value < np.inf):
                problem = (f"at most {most}" if least <= value < np.inf
                           else f"finite and at least {least:g}")
                print(f"--{name.replace('_', '-')} must be {problem}, got {value}",
                      file=sys.stderr)
                return EXIT_CONFIG
        cfg = load_config(args.config)
        for name, (section, setting) in _SETTING.items():
            if getattr(args, name, None) is not None:
                setattr(getattr(cfg, section), setting, getattr(args, name))
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EmptyCellError as exc:
        print(f"starved quantizer cell: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
