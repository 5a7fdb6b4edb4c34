"""Complex polynomial kernels and the shared iteration error.

All-roots polynomial solving (simultaneous Aberth-Ehrlich iteration) on
batches of same-degree polynomials, plus the rowwise residual check that
accepts its roots.  The fiber solver and the continuation tracker build on
these.
"""
from __future__ import annotations

import numpy as np


class NonConvergence(RuntimeError):
    """An iteration exhausted its budget or its iterates diverged."""


def _aberth(coeffs: np.ndarray, tol: float, max_iter: int = 160):
    """Simultaneous all-roots iteration on a batch of same-degree polynomials.

    coeffs has shape (m, d+1), ascending degree, nonzero leading column.
    Returns (roots, ok) with roots (m, d) and ok marking converged rows.
    Degree-1 rows never reach here; callers special-case them.
    """
    m, dp1 = coeffs.shape
    d = dp1 - 1
    monic = coeffs / coeffs[:, -1:]
    bound = 1.0 + np.max(np.abs(monic[:, :-1]), axis=1)
    j = np.arange(d)
    # fixed asymmetric launch angles; symmetric starts can stall on real polys
    angles = 2.0 * np.pi * (j + 0.25) / d + 0.4
    roots = 0.85 * bound[:, None] * np.exp(1j * angles)[None, :]
    active = np.ones(m, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        r = roots[active]
        c = monic[active]
        p = np.ones_like(r)
        dp = np.zeros_like(r)
        for k in range(d - 1, -1, -1):
            dp = dp * r + p
            p = p * r + c[:, k, None]
        w = p / np.where(dp == 0, 1e-300, dp)
        diff = r[:, :, None] - r[:, None, :]
        eye = np.eye(d, dtype=bool)
        diff = np.where(eye[None, :, :], 1.0, diff)
        s = np.sum(np.where(eye[None, :, :], 0.0, 1.0 / diff), axis=2)
        denom = 1.0 - w * s
        step = w / np.where(np.abs(denom) < 1e-14, 1.0, denom)
        # clamp wild steps so one bad iterate cannot eject the whole row
        lim = bound[active][:, None]
        step = np.where(np.isfinite(step), step, lim * (0.1 + 0.1j))
        mag = np.abs(step)
        scale = np.where(mag > lim, lim / np.maximum(mag, 1e-300), 1.0)
        step = step * scale
        roots[active] = r - step
        done = np.max(np.abs(step), axis=1) < tol * (1.0 + np.max(np.abs(r), axis=1))
        idx = np.flatnonzero(active)
        active[idx[done]] = False
    return roots, ~active


def _poly_residual_ok(coeffs: np.ndarray, roots: np.ndarray, tol: float) -> np.ndarray:
    """Check |p(r)| <= tol * max(1, ||p|| * max(1,|r|)^deg) rowwise."""
    d = coeffs.shape[1] - 1
    p = np.repeat(coeffs[:, -1:], roots.shape[1], axis=1)
    for k in range(d - 1, -1, -1):
        p = p * roots + coeffs[:, k, None]
    norm = np.max(np.abs(coeffs), axis=1)
    scale = np.maximum(1.0, norm[:, None] * np.maximum(1.0, np.abs(roots)) ** d)
    return np.all(np.abs(p) <= tol * scale, axis=1)
