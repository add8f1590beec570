"""Recover beta source parameters from known quantizer words.

Given the representation points of an M-level optimal quantizer, search
the (alpha, beta) plane for the source whose Lloyd-Max design matches
them. Used to rebuild the reference experiment's agent-5 source
parameters from its target word list.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .densities import BetaDensity
from .quantizers import lloyd_max


def design_words(alpha: float, beta_param: float, levels: int,
                 tol: float = 1e-11) -> np.ndarray:
    """Lloyd-Max words for a Beta(alpha, beta_param) source."""
    res = lloyd_max(BetaDensity(alpha, beta_param), levels=levels, tol=tol)
    return res.quantizer.words


def recover_beta_params(
    target_words: Sequence[float],
    levels: Optional[int] = None,
    grid: Sequence[float] = (0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0),
) -> Tuple[float, float, float]:
    """Best-fitting (alpha, beta) and the achieved max word deviation.

    Coarse grid scan followed by Nelder-Mead in log-parameter space on
    the max absolute word deviation. The returned deviation is the
    minimax deviation reached. When the target is not the Lloyd-Max
    design of any beta source it can be far above any tolerance, and the
    parameters are then only the best fit, so callers must check it.
    """
    target = np.asarray(target_words, dtype=float)
    if levels is None:
        levels = target.size
    if target.size != levels:
        raise ValueError("target word count does not match levels")

    def objective(logp):
        a, b = np.exp(logp)
        if not (1e-3 < a < 1e3 and 1e-3 < b < 1e3):
            return np.inf
        try:
            words = design_words(a, b, levels, tol=1e-10)
        except Exception:
            return np.inf
        return float(np.max(np.abs(words - target)))

    best = None
    for a0 in grid:
        for b0 in grid:
            v = objective(np.log([a0, b0]))
            if best is None or v < best[1]:
                best = (np.log([a0, b0]), v)

    # imported here: scipy.optimize (with scipy.sparse and scipy.linalg)
    # is about a quarter of every process's memory, and only this step uses it
    from scipy import optimize
    res = optimize.minimize(
        objective, best[0], method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    alpha, beta_param = np.exp(res.x)
    return float(alpha), float(beta_param), float(res.fun)
