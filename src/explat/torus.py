"""Multiplicative-group kernel: the anchor-indexed logarithm.

The period lattice per torus coordinate is 2*pi*i*Z.  Logarithm branches are
carried as anchor values (the previous branch value) instead of integer
indices so continuation composes without a global branch-cut convention.
"""
from __future__ import annotations

import math

import numpy as np

TORUS_PERIOD = 2j * math.pi
ZERO_TOL = 1e-300      # |w| below this has no logarithm: w has left the torus


def torus_log_near(w, anchor):
    """(G, ok): the branch of log w nearest to anchor, principal + 2*pi*i*k, and ok = |w| >= ZERO_TOL.

    The principal branch takes Im in (-pi, pi]; where ok is False (w zero,
    below ZERO_TOL or NaN), G is the anchor's branch of log 1.
    """
    w = np.asarray(w, dtype=complex)
    ok = np.abs(w) >= ZERO_TOL
    base = np.log(np.where(ok, w, 1.0))
    # numpy yields Im = -pi on the negative real axis approached from below;
    # normalize the boundary to the +pi side
    base = np.where(base.imag == -math.pi, np.conj(base), base)
    anchor = np.asarray(anchor, dtype=complex)
    k = np.round((anchor.imag - base.imag) / (2.0 * math.pi))
    return base + TORUS_PERIOD * k, ok
