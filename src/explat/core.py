"""Complex polynomial kernels and the shared iteration error.

All-roots polynomial solving (companion-matrix eigenvalues) on batches of
same-degree polynomials, Smale's point estimates (the Newton step and
gamma, hence alpha) that certify a root from data at one point, and the
rowwise residual check that accepts roots.  The fiber solver uses
the all-roots solve; the continuation tracker and the record verifier run
Newton's method from one point where the alpha-test certifies it.
"""
from __future__ import annotations

import math

import numpy as np

# Smale's alpha_0: alpha(x) < ALPHA_0 puts x in the quadratic basin of a
# unique root within 2*beta(x) (Blum-Cucker-Shub-Smale, Ch. 8, Thm. 2)
ALPHA_0 = (13.0 - 3.0 * math.sqrt(17.0)) / 4.0
ROOT_TOL = 1e-12       # stage root residual tolerance
NEWTON_STEPS = 6       # Newton steps per certified stage root, counting the first


class NonConvergence(RuntimeError):
    """An iteration exhausted its budget or its iterates diverged."""


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each row's polynomial: (m, d) from coeffs (m, d+1),
    ascending degree, nonzero leading column, every entry finite.

    The roots are the eigenvalues of each row's companion matrix, which
    are backward stable (Edelman-Murakami, "Polynomial roots from
    companion matrix eigenvalues", Math. Comp. 64, 1995); LAPACK solves
    each matrix on its own, so a row's roots do not depend on its batch.
    """
    m, dp1 = coeffs.shape
    d = dp1 - 1
    companion = np.zeros((m, d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    return np.linalg.eigvals(companion)


def _poly_residual_ok(coeffs: np.ndarray, roots: np.ndarray, tol: float) -> np.ndarray:
    """Check |p(r)| <= tol * max(1, ||p|| * max(1,|r|)^deg) rowwise."""
    d = coeffs.shape[1] - 1
    p = np.repeat(coeffs[:, -1:], roots.shape[1], axis=1)
    for k in range(d - 1, -1, -1):
        p = p * roots + coeffs[:, k, None]
    norm = np.max(np.abs(coeffs), axis=1)
    scale = np.maximum(1.0, norm[:, None] * np.maximum(1.0, np.abs(roots)) ** d)
    return np.all(np.abs(p) <= tol * scale, axis=1)


def _smale(coeffs: np.ndarray, x: np.ndarray):
    """Newton step p/p' and Smale's gamma of each row's polynomial at x.

    coeffs is (m, d+1) ascending; x is (m, j).  One Taylor shift at x gives
    b_k = p^(k)(x)/k!, so gamma = max_k |b_k/b_1|^(1/(k-1)) for k >= 2, and
    alpha = |step| * gamma.  Where p'(x) = 0 the step and gamma are inf.
    """
    d = coeffs.shape[1] - 1
    b = [coeffs[:, k, None] for k in range(d + 1)]
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            b[k] = b[k] + x * b[k + 1]
    flat = b[1] == 0
    b1 = np.where(flat, 1.0, b[1])
    step = np.where(flat, np.inf, b[0] / b1)
    gamma = np.zeros(x.shape)
    for k in range(2, d + 1):
        gamma = np.maximum(gamma, np.abs(b[k] / b1) ** (1.0 / (k - 1)))
    return step, np.where(flat, np.inf, gamma)


def _certified_newton(coeffs: np.ndarray, x: np.ndarray, ok: np.ndarray):
    """Newton's method from x (m,) on the rows where ok and Smale's alpha-test at x certify it:
    at most NEWTON_STEPS steps, the first the test's, until a step is below ROOT_TOL * (1 + |x|).
    Returns (root, alpha, cert); root is x where cert is False."""
    first, gamma = _smale(coeffs, x[:, None])
    alpha = np.abs(first[:, 0]) * gamma[:, 0]
    cert = ok & (alpha < ALPHA_0)
    x = np.array(x, dtype=complex)
    x[cert] -= first[cert, 0]
    d = coeffs.shape[1] - 1
    live = np.flatnonzero(cert)
    for _ in range(NEWTON_STEPS - 1):
        r = x[live]
        c = coeffs[live]
        p = c[:, d]
        dp = np.zeros_like(r)
        for k in range(d - 1, -1, -1):
            dp = dp * r + p
            p = p * r + c[:, k]
        step = p / np.where(dp == 0, np.nan, dp)
        x[live] = r - step
        live = live[~(np.abs(step) <= ROOT_TOL * (1.0 + np.abs(r)))]
    return x, alpha, cert
