"""Seeded random streams used everywhere in the package.

All randomness flows through the Philox-4x64-10 counter-based bit generator,
keyed directly by a 64-bit seed (plus an optional stream index), so draw
sequences are reproducible across platforms and processes.  Gaussian variates
are produced by the Box-Muller transform applied to consecutive uniform
pairs, rather than numpy's ziggurat, to keep the normal stream pinned to the
documented uniform stream.  The cosine and sine of its angle 2 pi u come from
one tangent of half the angle, which costs a fraction of a cos and a sin.

Streams of one seed are independent, one per purpose: 0 simulated fields,
initial weights, Gram points and Monte-Carlo pairs; 1 minibatch order; 2
cross-validation folds; 3 the measurement noise of a simulated draw.
"""

from __future__ import annotations

import numpy as np


# Box-Muller pairs per block in gaussian, so that its temporaries are four
# arrays of _GAUSSIAN_BLOCK floats however many variates are asked for
_GAUSSIAN_BLOCK = 1 << 16


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream), each in [0, 2^64)."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via Box-Muller with deterministic pairing.

    Pair i consumes uniforms (2i, 2i+1) of the stream; the two resulting
    normals are laid out consecutively in the flattened output.  For an odd
    number of variates the trailing normal of the last pair is dropped.
    With r = sqrt(-2 ln(1 - u_2i)) and t = tan(pi u_(2i+1)), the pair is
    r (cos, sin)(2 pi u_(2i+1)) = (q - r, t q) for q = 2 r / (1 + t^2): one
    tangent, no cos or sin.  Each normal lies within a few ulp of r of the
    cos/sin form, and |z| <= r (1 + 2^-52), so no normal exceeds
    sqrt(-2 ln 2^-53) (1 + 2^-52) < 8.58 in size.  Pairs are drawn and
    transformed in blocks of _GAUSSIAN_BLOCK, which continue one stream and
    give the same values as a single draw.
    """
    shape = tuple(np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    npairs = (n + 1) // 2
    z = np.empty(2 * npairs)
    pairs = z.reshape(npairs, 2)
    # one set of block buffers, refilled for each block
    block = min(_GAUSSIAN_BLOCK, npairs)
    u, r, t = np.empty((block, 2)), np.empty(block), np.empty(block)
    for start in range(0, npairs, _GAUSSIAN_BLOCK):
        m = min(block, npairs - start)
        um, rm, tm = u[:m], r[:m], t[:m]
        rng.random(out=um)
        np.subtract(1.0, um[:, 0], out=rm)  # exact and in (0, 1], so log is finite
        np.log(rm, out=rm)
        rm *= -2.0
        np.sqrt(rm, out=rm)
        np.multiply(um[:, 1], np.pi, out=tm)
        np.tan(tm, out=tm)  # finite: no double is pi / 2
        z0, z1 = pairs[start : start + m, 0], pairs[start : start + m, 1]
        np.square(tm, out=z0)  # z0 holds q until r is taken from it
        z0 += 1.0
        np.divide(rm, z0, out=z0)
        z0 *= 2.0
        np.multiply(tm, z0, out=z1)
        z0 -= rm
    out = z[:n]
    return out.reshape(shape) if shape else float(out[0])
