"""Deterministic measurement noise.

Real profiling runs jitter run to run; a noiseless analytical model would
make the regression task unrealistically easy and the classification labels
unrealistically clean.  We perturb each simulated time with multiplicative
lognormal noise whose seed is derived from the full run identity
(GPU, stencil, OC, parameter setting), so repeated "measurements" of the
same configuration agree exactly while distinct configurations decorrelate.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

#: Standard deviation of the lognormal jitter (about +/-3% per sample).
DEFAULT_SIGMA = 0.03


def _hasher(parts, base=None):
    """blake2b fed the repr of each part (continuing *base* if given).

    Python's builtin ``hash`` is salted per process, so we serialize the
    repr of each part through blake2b instead.
    """
    h = hashlib.blake2b(digest_size=16) if base is None else base.copy()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h


def _digest(*parts: object) -> tuple[int, int]:
    """Stable pair of 64-bit words from arbitrary run-identity parts."""
    return struct.unpack("<QQ", _hasher(parts).digest())


def _normal(a: int, b: int) -> float:
    """Box-Muller: a standard normal from two 64-bit words."""
    u1 = (a + 1) / (2**64 + 1)  # in (0, 1), never exactly 0
    u2 = b / 2**64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def standard_normal(*key: object) -> float:
    """Deterministic standard-normal draw keyed by *key* (Box-Muller).

    Constructing a ``numpy`` Generator per call would dominate the
    simulator's runtime at dataset scale, so the two uniforms come straight
    from a blake2b digest of the key.
    """
    return _normal(*_digest(*key))


def noise_factors(
    prefix: tuple, keys, sigma: float = DEFAULT_SIGMA, base=None
) -> np.ndarray:
    """Jitter for the runs keyed ``prefix + (key,)``, one per *keys* entry.

    The shared *prefix* (GPU, stencil, OC for a campaign slice) is
    hashed once and the digest state copied per key; each factor equals
    ``noise_factor(*prefix, key, sigma=sigma)``.  *base*, the state
    ``_hasher(head)`` of earlier key parts, continues that hash instead:
    blake2b is streaming, so the factors equal those keyed
    ``head + prefix + (key,)``.
    """
    base = _hasher(prefix, base)
    unpack, exp = struct.unpack, math.exp
    out = np.empty(len(keys))
    for j, key in enumerate(keys):
        h = base.copy()
        h.update(repr(key).encode())
        h.update(b"\x1f")
        out[j] = exp(sigma * _normal(*unpack("<QQ", h.digest())))
    return out


def noise_factor(*key: object, sigma: float = DEFAULT_SIGMA) -> float:
    """Deterministic multiplicative jitter for the run identified by *key*.

    Returns ``exp(sigma * z)`` with ``z`` standard normal derived from the
    key; the expected value is slightly above 1 (lognormal mean), which is
    harmless since every configuration receives the same treatment.  A
    batch of one through :func:`noise_factors`.
    """
    if sigma <= 0:
        return 1.0
    return float(noise_factors(key[:-1], key[-1:], sigma)[0])
