"""Multiplicative-group kernel: exponential and anchor-indexed logarithm.

The period lattice per torus coordinate is 2*pi*i*Z.  Logarithm branches are
carried as anchor values (the previous branch value) instead of integer
indices so continuation composes without a global branch-cut convention.
"""
from __future__ import annotations

import math

import numpy as np

TORUS_PERIOD = 2j * math.pi

# largest Re z with e^z finite in doubles
_EXP_RE_MAX = 709.0


class ExpOverflow(OverflowError):
    """Re(z) beyond the double-precision exponent range."""


def torus_exp(z):
    """Coordinate-wise e^z; raises instead of silently saturating."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.real > _EXP_RE_MAX):
        raise ExpOverflow("exp overflows double precision (Re z > 709)")
    out = np.exp(z)
    return out if out.shape else complex(out)


def torus_log(w):
    """Principal logarithm, Im in (-pi, pi]; w must be nonzero."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("log of zero")
    out = np.log(w)
    # numpy yields Im = -pi on the negative real axis approached from below;
    # normalize the boundary to the +pi side
    out = np.where(out.imag == -math.pi, np.conj(out), out)
    return out if out.shape else complex(out)


def torus_log_near(w, anchor):
    """The branch of log w nearest to anchor: principal + 2*pi*i*k."""
    base = torus_log(w)
    base = np.asarray(base, dtype=complex)
    anchor = np.asarray(anchor, dtype=complex)
    k = np.round((anchor.imag - base.imag) / (2.0 * math.pi))
    out = base + TORUS_PERIOD * k
    return out if out.shape else complex(out)
