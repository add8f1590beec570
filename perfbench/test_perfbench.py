"""Benchmark-side tests. They run one traced reference solve (about a
minute), so they stay out of the library's test suite:

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.add_library_path()

import tracing  # noqa: E402
import workloads  # noqa: E402
from quantgame import config, game, networks  # noqa: E402


@pytest.fixture(scope="module")
def traced_solve():
    cfg = config.load_config(workloads.REF_CFG)
    g = cfg.game()
    with tracing.Tracer("test") as tracer:
        with tracer.phase("solve"):
            state, report = game.solve_equilibrium(
                g, schedule_policy=cfg.solver.schedule_policy, tol=cfg.solver.tol,
                max_sweeps=cfg.solver.max_sweeps, n_starts=cfg.solver.n_starts)
    return tracer, state, report


def test_fixture_matches_a_fresh_solve(traced_solve):
    _tracer, state, report = traced_solve
    assert report.converged
    for q, expected in zip(state.quantizers, workloads.fixture_words()):
        assert np.max(np.abs(q.words - expected)) <= workloads.WORD_TOL


def test_reference_solve_counts(traced_solve):
    counts = traced_solve[0].counters["solve"]
    assert counts["game.sweep.calls"] == 48
    assert counts["quantizers.lloyd_max.calls"] == 600
    assert counts["quantizers.lloyd_max.iterations"] == 58_069
    assert counts["densities.partial_moments.calls"] == 1_112_742


def test_spans_nest_with_nonnegative_self_time(traced_solve):
    table = traced_solve[0].span_table()
    by_id = {row[0]: row for row in table}
    for _sid, _name, parent, start, end, self_s in table:
        assert start <= end and self_s >= 0.0
        if parent is not None:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]
    solve_id = next(row[0] for row in table if row[1] == "game.solve_equilibrium")
    children = {row[1] for row in table if row[2] == solve_id}
    assert children == {"game.bootstrap", "game.sweep"}


def test_tracer_restores_every_binding_site():
    before = [getattr(owner, attr) for owner, attr, *_ in tracing._SITES]
    with tracing.Tracer("test"):
        assert all(getattr(owner, attr) is not original for (owner, attr, *_), original
                   in zip(tracing._SITES, before))
    assert [getattr(owner, attr) for owner, attr, *_ in tracing._SITES] == before


def test_forest_game_seed_only_relabels_agents():
    a, b = workloads.forest_game(1), workloads.forest_game(2)
    assert np.array_equal(a.comm.entries, workloads.forest_game(1).comm.entries)
    assert not np.array_equal(a.comm.entries, b.comm.entries)
    shapes = [sorted((x.physical.alpha, x.physical.beta_param) for x in g.agents)
              for g in (a, b)]
    assert shapes[0] == shapes[1]
    for g in (a, b):
        assert networks.detect_acyclic(g.comm)[0]
        links = g.comm.entries[~np.eye(g.n_agents, dtype=bool)]
        links = np.sort(links[links > 0])
        assert links.size == 4 and np.all((links >= 0.1) & (links <= 0.4))
    assert np.array_equal(np.sort(a.comm.entries.ravel()), np.sort(b.comm.entries.ravel()))


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
