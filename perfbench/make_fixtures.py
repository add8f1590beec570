"""Regenerate the benchmark's reference fixtures (takes a few minutes).

    python3 perfbench/make_fixtures.py

- `fixtures/reference_state.json`: the solved `configs/reference.cfg`
  equilibrium, written by `save_state` at full precision. `ref-solve`
  checks its words against it and `ref-montecarlo` loads it, so that
  workload does not pay for a solve.
- `fixtures/reference_expected.json`: high-sample per-agent total losses
  with standard errors (BATCHES batches of 1M samples per agent) and the
  exact chains results on the fixture state.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run

BATCHES = 20
FIXTURE_STREAM = 2 ** 21  # seed namespace apart from the benchmark's passes


def main():
    run.add_library_path()
    from quantgame import config, game, montecarlo
    from workloads import FIXTURES, MC_SAMPLES, REF_CFG, REF_EXPECTED, REF_STATE, \
        chains_pass, mc_seed

    cfg = config.load_config(REF_CFG)
    g = cfg.game()
    state, report = game.solve_equilibrium(
        g, schedule_policy=cfg.solver.schedule_policy, tol=cfg.solver.tol,
        max_sweeps=cfg.solver.max_sweeps, n_starts=cfg.solver.n_starts)
    if not report.converged:
        sys.exit("reference solve did not converge")
    FIXTURES.mkdir(exist_ok=True)
    config.save_state(state, cfg.agent_ids, REF_STATE)
    state = config.load_state(REF_STATE, g)

    losses = []
    for i in range(g.n_agents):
        reps = [montecarlo.estimate_losses(i, state, g, MC_SAMPLES,
                                           seed=mc_seed(FIXTURE_STREAM, b, i))
                for b in range(BATCHES)]
        total = float(np.mean([r.total for r in reps]))
        se = float(np.sqrt(np.sum([r.total_se ** 2 for r in reps])) / BATCHES)
        losses.append([total, se])
        print(f"agent {cfg.agent_ids[i]}: total {total:.10f} +- {se:.2e}", flush=True)

    expected = {"batches": BATCHES, "samples_per_batch": MC_SAMPLES,
                "losses": losses, "chains": chains_pass(state.quantizers, g)}
    REF_EXPECTED.write_text(json.dumps(expected, indent=1))


if __name__ == "__main__":
    main()
