"""Seeded random streams used everywhere in the package.

All randomness flows through the Philox-4x64-10 counter-based bit generator,
keyed directly by a 64-bit seed (plus an optional stream index), so draw
sequences are reproducible across platforms and processes.  Gaussian variates
are produced by the Box-Muller transform applied to consecutive uniform
pairs, rather than numpy's ziggurat, to keep the normal stream pinned to the
documented uniform stream.

Streams of one seed are independent, one per purpose: 0 simulated fields,
initial weights, Gram points and Monte-Carlo pairs; 1 minibatch order; 2
cross-validation folds; 3 the measurement noise of a simulated draw.
"""

from __future__ import annotations

import numpy as np


# Box-Muller pairs per block in gaussian, so that its temporaries are a few
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
    Pairs are drawn and transformed in blocks of _GAUSSIAN_BLOCK, which
    continue one stream and give the same values as a single draw.
    """
    shape = tuple(np.atleast_1d(shape)) if not isinstance(shape, tuple) else shape
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    npairs = (n + 1) // 2
    z = np.empty(2 * npairs)
    for start in range(0, npairs, _GAUSSIAN_BLOCK):
        stop = min(start + _GAUSSIAN_BLOCK, npairs)
        u = rng.random((stop - start, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1 - u in (0, 1], so log is finite
        theta = 2.0 * np.pi * u[:, 1]
        z[2 * start : 2 * stop : 2] = r * np.cos(theta)
        z[2 * start + 1 : 2 * stop : 2] = r * np.sin(theta)
    out = z[:n]
    return out.reshape(shape) if shape else float(out[0])
