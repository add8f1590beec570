"""Independent numerical oracles used to validate the closed-form code paths.

Everything here avoids the library's own moment formulas: probabilities and
moments come from midpoint Riemann sums on dense grids, optimal quantizers
from exhaustive dynamic programming over a discretized source, and the
beta-pair overlap from adaptive quadrature.
"""

import math

import numpy as np
from scipy import integrate, special


def beta_pdf(x, alpha, beta_param):
    x = np.asarray(x, dtype=float)
    return np.exp(
        (alpha - 1.0) * np.log(x)
        + (beta_param - 1.0) * np.log1p(-x)
        - special.betaln(alpha, beta_param)
    )


def riemann_moments(pdf, a, b, n=2_000_000):
    """(m0, m1, m2) of `pdf` over (a, b] by the midpoint rule."""
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    p = pdf(x) * h
    return float(p.sum()), float((x * p).sum()), float((x * x * p).sum())


def riemann_quantizer_loss(pdf, boundaries, words, n_per_cell=400_000):
    """Expected squared quantization error by midpoint Riemann sums."""
    total = 0.0
    for k, y in enumerate(words):
        a, b = boundaries[k], boundaries[k + 1]
        h = (b - a) / n_per_cell
        x = a + (np.arange(n_per_cell) + 0.5) * h
        total += float(np.sum((x - y) ** 2 * pdf(x)) * h)
    return total


def bhattacharyya_overlap(p_pdf, q_pdf):
    """Integral of sqrt(p q) over (0, 1) by adaptive quadrature."""
    val, _err = integrate.quad(
        lambda x: math.sqrt(p_pdf(x) * q_pdf(x)), 0.0, 1.0, limit=400
    )
    return val


def dp_optimal_quantizer(pdf, levels, n_grid=2000):
    """Globally optimal `levels`-cell quantizer of the discretized source.

    The source is collapsed to `n_grid` equal-width bins (midpoint mass),
    then an exact dynamic program picks the best cell boundaries. Returns
    (boundaries, words, loss) of the discrete solution; it approximates
    the continuous optimum to O(1/n_grid).
    """
    h = 1.0 / n_grid
    x = (np.arange(n_grid) + 0.5) * h
    m0 = pdf(x) * h
    m1 = x * m0
    m2 = x * x * m0
    c0 = np.concatenate(([0.0], np.cumsum(m0)))
    c1 = np.concatenate(([0.0], np.cumsum(m1)))
    c2 = np.concatenate(([0.0], np.cumsum(m2)))

    def cell_costs(i, j):
        # optimal (centroid) costs of grouping bins i..j-1 into one cell,
        # vectorized over an index array i
        w0 = c0[j] - c0[i]
        w1 = c1[j] - c1[i]
        w2 = c2[j] - c2[i]
        return np.where(w0 > 0.0, w2 - w1 * w1 / np.where(w0 > 0.0, w0, 1.0), 0.0)

    INF = float("inf")
    # cost[m][j]: best cost of covering bins 0..j-1 with m cells
    cost = np.full((levels + 1, n_grid + 1), INF)
    back = np.zeros((levels + 1, n_grid + 1), dtype=int)
    cost[0, 0] = 0.0
    for m in range(1, levels + 1):
        prev = cost[m - 1]
        for j in range(m, n_grid + 1):
            i = np.arange(m - 1, j)
            v = prev[i] + cell_costs(i, j)
            k = int(np.argmin(v))
            cost[m, j] = v[k]
            back[m, j] = i[k]
    cuts = [n_grid]
    j = n_grid
    for m in range(levels, 0, -1):
        j = back[m, j]
        cuts.append(j)
    cuts = cuts[::-1]
    boundaries = np.array([c * h for c in cuts])
    boundaries[0], boundaries[-1] = 0.0, 1.0
    words = np.array([
        (c1[cuts[k + 1]] - c1[cuts[k]]) / (c0[cuts[k + 1]] - c0[cuts[k]])
        for k in range(levels)
    ])
    return boundaries, words, float(cost[levels, n_grid])


def scalar_loop_moments(mix, a, b):
    """(m0, m1, m2) of a MixtureDensity over one cell (a, b] by a scalar loop
    over its parts: the per-cell kernel that the array kernel replaced, kept
    as its reference. Terms are added in declaration order, as the array
    kernel adds them, so on point-atom mixtures the two agree bit for bit."""
    m = [0.0, 0.0, 0.0]
    for w, d in mix.continuous_parts:
        al, be = d.alpha, d.beta_param
        mu1 = al / (al + be)
        scale = (1.0, mu1, mu1 * (al + 1) / (al + be + 1))
        for j in range(3):
            inc = special.betainc(al + j, be, b) - special.betainc(al + j, be, a)
            m[j] += w * float(scale[j] * inc)
    for w, c, k in mix.smeared_atoms:
        h = k.halfwidth
        p = [0.0, 0.0, 0.0]
        if k.shape.value == "point":
            if a < c <= b:
                p = [1.0, c, c * c]
        else:
            # (lo, hi, density at x) pieces of the kernel around c
            if k.shape.value == "uniform":
                pieces = ((c - h, c + h, lambda x: 1.0 / (2.0 * h)),)
            else:
                pieces = ((c - h, c, lambda x: (h - (c - x)) / (h * h)),
                          (c, c + h, lambda x: (h - (x - c)) / (h * h)))
            for lo, hi, dens in pieces:
                l, u = max(a, lo), min(b, hi)
                if u > l:
                    # the density is linear on the piece: Simpson's rule is exact
                    for j in range(3):
                        f = [x ** j * dens(x) for x in (l, 0.5 * (l + u), u)]
                        p[j] += (u - l) * (f[0] + 4.0 * f[1] + f[2]) / 6.0
        for j in range(3):
            m[j] += w * p[j]
    return tuple(m)
