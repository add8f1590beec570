"""The benchmark's workloads: inputs, timed passes and output checks.

Each workload runs in a single process and drives quantgame's public API.
The workload seed is a benchmark argument; the library only ever sees the
inputs generated from it.

- `ref-solve`: `configs/reference.cfg` (the paper's experiment), solve then
  verify. The moment kernel, Lloyd-Max and the sweep loop do almost all of
  its work; the seed only drives verify's sampling.
- `ref-montecarlo`: the reference equilibrium loaded from a fixture, then
  simulate and chains. `montecarlo` does nearly all of the work on a loopy
  network with point noise, so a solver change should leave it unchanged.
- `noisy-forest`: a six-agent game on a random forest with triangular
  noise, solved with the topological schedule, then simulated.
  It converges in two sweeps, so its time is cold multi-start Lloyd-Max and
  quantile bisection on smeared atoms; it bypasses any fast path that only
  serves point atoms.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from quantgame import config, game, montecarlo, networks
from quantgame.densities import BetaDensity, KernelShape, NoiseKernel



def cpu_seconds():
    """CPU time of this process and of the child processes it waited for.

    The benchmark times with this clock, not the wall clock: on a shared
    virtual machine the hypervisor steals the CPU for seconds at a time, and
    that stolen time shows in wall time but not in CPU time. The workloads
    run on one thread, so on an idle machine the two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
REF_CFG = ROOT / "configs" / "reference.cfg"
REF_STATE = FIXTURES / "reference_state.json"
REF_EXPECTED = FIXTURES / "reference_expected.json"

MC_SAMPLES = 1_000_000  # per agent, for every simulate pass
CHAINS_REPS = 25  # one chains pass takes ~16 ms, so a pass repeats it
CHAIN = (0, 1, 2)  # agent ids 1, 2, 3
PROBE_MAX_LEN = 5
PROBE_INPUTS = 101

# Output-check tolerances. Five standard errors, not criterion 5's three:
# with a free seed, 30 word-level 3-SE tests would fail ~8% of seeds.
WORD_TOL = 1e-10
OBSERVED_RESIDUAL_TOL = 1e-8
BR_DISTANCE_TOL = 1e-6
N_SE = 5.0
IDENTITY_TOL = 1e-12


class Run:
    """Timings, sample counts and failures of one benchmark run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.times = defaultdict(list)  # phase -> CPU seconds per operation
        self.sim_rates = []  # accepted samples per CPU second, per simulate pass

    def op(self, phase, fn, check):
        """Time fn() as one operation of `phase`, then check its output
        outside the timed region. A raise or a failed check counts as one
        failed operation; the result is None when fn raised."""
        self.attempted += 1
        scope = self.tracer.phase(phase) if self.tracer else nullcontext()
        t0 = cpu_seconds()
        try:
            with scope:
                out = fn()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{phase}: raised")
            return None
        self.times[phase].append(cpu_seconds() - t0)
        with self.tracer.suspended() if self.tracer else nullcontext():
            problems = check(out)
        if problems:
            self.failures.append(f"{phase}: " + "; ".join(problems))
        return out

    def skip(self, phase, reason):
        self.attempted += 1
        self.failures.append(f"{phase}: not run, {reason}")

    def phase_medians(self):
        return {phase: median(ts) for phase, ts in self.times.items()}

    def pass_cpu_s(self):
        """Sum over the workload's timed phases of each phase's median."""
        return sum(self.phase_medians().values())


CHECK_STREAM = 2 ** 20  # pass number of the sampling done by output checks


def mc_seed(seed, pass_no, agent):
    """Seed of one estimate_losses call, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, pass_no, agent]).generate_state(1)[0])


# -- output checks -----------------------------------------------------------


def _certificate(report):
    """Observed residuals, best-response distances and convergence of a
    solve (or verify) report."""
    problems = []
    if not report.converged:
        problems.append("not converged")
    if np.max(report.observed_residuals) >= OBSERVED_RESIDUAL_TOL:
        problems.append(f"observed residual {np.max(report.observed_residuals):.3g}")
    if np.max(report.br_distances) >= BR_DISTANCE_TOL:
        problems.append(f"best-response distance {np.max(report.br_distances):.3g}")
    return problems


def _true_residuals(residuals, ses):
    return [f"agent {i}: true residual {r:.3g} > {N_SE} SE ({se:.3g})"
            for i, (r, se) in enumerate(zip(residuals, ses))
            if not abs(r) <= N_SE * se]


def _usage_problems(state):
    return [f"agent {i}: usage is not a probability vector"
            for i, u in enumerate(state.usage)
            if np.any(u < 0.0) or abs(float(np.sum(u)) - 1.0) > 1e-12]


def _loss_problems(i, rep, reference=None):
    problems = []
    parts = rep.quantization + rep.communication + rep.cross
    if abs(rep.total - parts) > IDENTITY_TOL:
        problems.append(f"agent {i}: total - parts = {rep.total - parts:.3g}")
    if rep.n_truncated:
        problems.append(f"agent {i}: {rep.n_truncated} truncated samples")
    if reference is not None:
        ref_total, ref_se = reference
        if abs(rep.total - ref_total) > N_SE * np.hypot(rep.total_se, ref_se):
            problems.append(f"agent {i}: total {rep.total!r} vs reference {ref_total!r}")
    return problems


# -- shared operations ---------------------------------------------------------


def simulate(run, state, g, seed, pass_no, reference=None):
    """estimate_losses for every agent at MC_SAMPLES samples each."""
    def work():
        return [montecarlo.estimate_losses(i, state, g, MC_SAMPLES,
                                           seed=mc_seed(seed, pass_no, i))
                for i in range(g.n_agents)]

    def check(reports):
        return [p for i, rep in enumerate(reports)
                for p in _loss_problems(i, rep, reference and reference[i])]

    reports = run.op("simulate", work, check)
    if reports is not None:
        accepted = sum(rep.n_samples for rep in reports)
        run.sim_rates.append(accepted / run.times["simulate"][-1])


def chains_pass(quantizers, g):
    """shared_vocabulary, path_dependence_probe over every ordered pair and
    chain_translate along CHAIN on the probe grid."""
    shared, _witnesses = montecarlo.shared_vocabulary(quantizers)
    probes = {}
    for i in range(g.n_agents):
        for j in range(g.n_agents):
            if i == j:
                continue
            try:
                rep = montecarlo.path_dependence_probe(
                    quantizers, g.comm, i, j,
                    max_len=PROBE_MAX_LEN, n_inputs=PROBE_INPUTS)
            except montecarlo.NoChainError:
                continue
            probes[f"{i},{j}"] = [rep.n_chains, rep.spread]
    grid = np.linspace(0.0, 1.0, PROBE_INPUTS + 2)[1:-1]
    finals = [montecarlo.chain_translate(quantizers, CHAIN, float(x)).final_word
              for x in grid]
    return {"shared": shared, "probes": probes, "chain_final_words": finals}


def _chains_problems(out, expected):
    problems = []
    if out["shared"] != expected["shared"]:
        problems.append("shared-vocabulary verdict differs")
    if out["probes"].keys() != expected["probes"].keys():
        problems.append("probed pairs differ")
    else:
        for key, (n_chains, spread) in expected["probes"].items():
            got_n, got_spread = out["probes"][key]
            if got_n != n_chains or abs(got_spread - spread) > IDENTITY_TOL:
                problems.append(f"probe {key} differs")
    if np.max(np.abs(np.subtract(out["chain_final_words"],
                                 expected["chain_final_words"]))) > IDENTITY_TOL:
        problems.append("chain translation differs")
    return problems


def fixture_words():
    """Equilibrium words of the reference fixture, at full precision."""
    doc = json.loads(REF_STATE.read_text())
    return [np.asarray(q["words"]) for q in doc["quantizers"]]


# -- workloads -------------------------------------------------------------------


class RefSolve:
    name = "ref-solve"
    setup_reps = 120

    def setup(self, seed):
        cfg = config.load_config(REF_CFG)
        return cfg, cfg.game()

    def run_pass(self, run, inputs, seed, pass_no):
        cfg, g = inputs
        expected_words = fixture_words()

        def solve_check(out):
            state, report = out
            problems = _certificate(report)
            drift = max(float(np.max(np.abs(q.words - e)))
                        for q, e in zip(state.quantizers, expected_words))
            if drift > WORD_TOL:
                problems.append(f"words moved {drift:.3g} from the fixture")
            return problems

        solved = run.op("solve", lambda: game.solve_equilibrium(
            g, schedule_policy=cfg.solver.schedule_policy, tol=cfg.solver.tol,
            max_sweeps=cfg.solver.max_sweeps, n_starts=cfg.solver.n_starts),
            solve_check)
        if solved is None:
            run.skip("verify", "solve failed")
            return
        state = solved[0]

        def verify():
            report = game.verify_nash(state, g, tol=cfg.solver.tol,
                                      n_samples=cfg.montecarlo.n_samples,
                                      seed=seed, n_starts=cfg.solver.n_starts)
            stability = game.check_social_stability(state, g,
                                                    n_starts=cfg.solver.n_starts)
            return report, stability

        def verify_check(out):
            report, stability = out
            problems = _certificate(report)
            problems += _true_residuals(report.true_residuals, report.true_residual_ses)
            if not np.isfinite(stability.epsilon):
                problems.append("stability margin is not finite")
            return problems

        run.op("verify", verify, verify_check)


class RefMonteCarlo:
    name = "ref-montecarlo"
    setup_reps = 30

    def setup(self, seed):
        cfg = config.load_config(REF_CFG)
        g = cfg.game()
        return g, config.load_state(REF_STATE, g)

    def run_pass(self, run, inputs, seed, pass_no):
        g, state = inputs
        expected = json.loads(REF_EXPECTED.read_text())
        simulate(run, state, g, seed, pass_no, reference=expected["losses"])
        for _ in range(CHAINS_REPS):
            run.op("chains", lambda: chains_pass(state.quantizers, g),
                   lambda out: _chains_problems(out, expected["chains"]))


# The noisy-forest game is drawn once, from this seed; the workload seed
# only relabels its agents and drives sampling. The solve time of a freshly
# drawn game varies with the draw by about 20% (interquartile range over
# ten seeds), mostly through how slowly Lloyd-Max converges on receivers
# whose boundaries sit near a peer's smeared word.
FOREST_GAME_SEED = 0
# Half the reference's 8 starts: still a cold multi-start, at about 60% of
# the cost, which keeps the whole benchmark inside its time budget.
FOREST_STARTS = 4


def forest_game(seed):
    """Six Beta(a, b) agents, a and b in [1.5, 6], six levels each, on a
    random forest with link weights in [0.1, 0.4], and triangular noise of
    halfwidth 0.02. The first two agents in a random order are roots; every
    later one hears one earlier agent. `seed` permutes the agents' labels."""
    rng = np.random.default_rng(FOREST_GAME_SEED)
    n = 6
    shapes = rng.uniform(1.5, 6.0, size=(n, 2))
    order = rng.permutation(n)
    P = np.eye(n)
    for pos in range(2, n):
        receiver, transmitter = order[pos], order[rng.integers(0, pos)]
        w = rng.uniform(0.1, 0.4)
        P[receiver, receiver] = 1.0 - w
        P[receiver, transmitter] = w
    label = np.random.default_rng(seed).permutation(n)  # agent k plays role label[k]
    agents = tuple(networks.AgentSpec(k + 1, BetaDensity(*shapes[role]), 6)
                   for k, role in enumerate(label))
    return game.QuantizationGame(agents, networks.CommMatrix(P[np.ix_(label, label)]),
                                 NoiseKernel(KernelShape.TRIANGULAR, 0.02))


class NoisyForest:
    name = "noisy-forest"
    setup_reps = 5000

    def setup(self, seed):
        return forest_game(seed)

    def run_pass(self, run, g, seed, pass_no):
        def solve_check(out):
            state, report = out
            problems = _certificate(report) + _usage_problems(state)
            residuals, ses = [], []
            for i in range(g.n_agents):
                resid, se, _counts = montecarlo.true_env_residuals(
                    i, state, g, n_samples=MC_SAMPLES, seed=mc_seed(seed, CHECK_STREAM, i))
                k = int(np.nanargmax(np.abs(resid)))
                residuals.append(resid[k])
                ses.append(se[k])
            return problems + _true_residuals(residuals, ses)

        solved = run.op("solve", lambda: game.solve_equilibrium(
            g, schedule_policy="topological_if_acyclic", tol=1e-9,
            max_sweeps=200, n_starts=FOREST_STARTS), solve_check)
        if solved is None:
            run.skip("simulate", "solve failed")
            return
        simulate(run, solved[0], g, seed, pass_no)


WORKLOADS = {w.name: w for w in (RefSolve(), RefMonteCarlo(), NoisyForest())}
