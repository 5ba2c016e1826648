"""Covariance network models: constituents, coefficients, and fitted kernels.

A fitted covariance kernel has the low-rank form

    c(u, v) = sum_{r,s} lambda_{r,s} g_r(u) g_s(v),

with a positive semi-definite R x R matrix Lambda and R neural-network
constituents g_r.  Three constituent families are supported:

* shallow     -- single-layer perceptrons sigmoid(w_r . u + b_r);
* deep        -- one independent multilayer network per constituent, with a
                 sigmoid applied after every layer including the scalar
                 output layer;
* deepshared  -- one shared multilayer trunk; constituents differ only in
                 their final scalar layer.

During fitting the kernel is represented through an N x R coefficient matrix
Xi: the fitted fields are Xi Z^T with Z the constituents evaluated on the
grid, and Lambda is recovered at freeze time as the (centered) second moment
of the coefficient columns, which makes it PSD by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelFormatError
from .fields import FieldMatrix, Grid
from .rng import gaussian, make_rng, uniform

MODEL_HEADER = "covnet-model v1"

SHALLOW = "shallow"
DEEP = "deep"
DEEPSHARED = "deepshared"
VARIANTS = (SHALLOW, DEEP, DEEPSHARED)


@dataclass(frozen=True)
class Architecture:
    """Constituent family, count R, input dimension, and hidden widths."""

    variant: str
    r: int
    d: int
    widths: tuple[int, ...] = ()

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.r < 1 or self.d < 1:
            raise ValueError("need r >= 1 and d >= 1")
        object.__setattr__(self, "widths", tuple(int(p) for p in self.widths))
        if self.variant == SHALLOW:
            if self.widths:
                raise ValueError("shallow networks have no hidden widths")
        else:
            if len(self.widths) < 1 or any(p < 1 for p in self.widths):
                raise ValueError("deep variants need positive hidden widths")
            if len(self.widths) < 2:
                warnings.warn(
                    "depth below 2 defeats the point of a deep constituent",
                    stacklevel=3,
                )

    @property
    def depth(self) -> int:
        return len(self.widths)

    @staticmethod
    def shallow(r: int, d: int) -> "Architecture":
        return Architecture(SHALLOW, r, d)

    @staticmethod
    def deep(r: int, d: int, depth: int, width: int | None = None) -> "Architecture":
        """Deep architecture with uniform hidden width (default: width R)."""
        return Architecture(DEEP, r, d, (width or r,) * depth)

    @staticmethod
    def deepshared(r: int, d: int, depth: int, width: int | None = None) -> "Architecture":
        return Architecture(DEEPSHARED, r, d, (width or r,) * depth)


@dataclass
class ShallowParams:
    w: np.ndarray  # (R, d)
    b: np.ndarray  # (R,)


@dataclass
class DeepNet:
    """One constituent's stack: hidden layers then a scalar output layer."""

    weights: list[np.ndarray]  # W_l of shape (p_l, p_{l-1}), p_0 = d
    biases: list[np.ndarray]  # (p_l,)
    w_out: np.ndarray  # (p_L,)
    b_out: np.ndarray  # ()


@dataclass
class DeepParams:
    nets: list[DeepNet]  # one per constituent


@dataclass
class DeepSharedParams:
    weights: list[np.ndarray]  # shared trunk W_l
    biases: list[np.ndarray]
    w_out: np.ndarray  # (R, p_L)
    b_out: np.ndarray  # (R,)


ModelParams = ShallowParams | DeepParams | DeepSharedParams


def _layer_dims(arch: Architecture) -> list[int]:
    return [arch.d, *arch.widths]


def init_params(arch: Architecture, n: int, seed: int) -> tuple[ModelParams, np.ndarray]:
    """Seeded initial parameters and coefficients.

    Weights are Glorot-uniform per layer, Uniform(-a, a) with
    a = sqrt(6 / (fan_in + fan_out)); biases start at zero.  Coefficients
    Xi are N(0, 1/R), so initial fitted fields have O(1) scale.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = make_rng(seed)

    def glorot(shape, fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return a * (2.0 * uniform(rng, shape) - 1.0)

    dims = _layer_dims(arch)
    if arch.variant == SHALLOW:
        params: ModelParams = ShallowParams(
            w=glorot((arch.r, arch.d), arch.d, arch.r), b=np.zeros(arch.r)
        )
    elif arch.variant == DEEP:
        nets = []
        for _ in range(arch.r):
            ws = [
                glorot((dims[l + 1], dims[l]), dims[l], dims[l + 1])
                for l in range(arch.depth)
            ]
            bs = [np.zeros(dims[l + 1]) for l in range(arch.depth)]
            w_out = glorot((dims[-1],), dims[-1], 1)
            nets.append(DeepNet(ws, bs, w_out, np.zeros(())))
        params = DeepParams(nets)
    else:
        ws = [
            glorot((dims[l + 1], dims[l]), dims[l], dims[l + 1])
            for l in range(arch.depth)
        ]
        bs = [np.zeros(dims[l + 1]) for l in range(arch.depth)]
        w_out = glorot((arch.r, dims[-1]), dims[-1], arch.r)
        params = DeepSharedParams(ws, bs, w_out, np.zeros(arch.r))
    xi = gaussian(rng, (n, arch.r)) / np.sqrt(arch.r)
    return params, xi


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-t)), computed in place on t and returned.

    exp(-t) overflows to inf for t below about -709; the reciprocal then
    gives exactly 0, so the overflow is expected and silenced.
    """
    np.negative(t, out=t)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def _layer(a: np.ndarray, w: np.ndarray, b) -> np.ndarray:
    """sigmoid(a W^T + b) for a hidden or output layer, in one fresh array."""
    h = a @ w.T
    h += b
    return _sigmoid(h)


def forward_constituents(params: ModelParams, arch: Architecture, points: np.ndarray):
    """Constituent values Z (M x R) plus the activation cache for backprop."""
    u = np.atleast_2d(np.asarray(points, dtype=float))
    if u.shape[1] != arch.d:
        raise ValueError(f"points must be (M, {arch.d}), got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("evaluation points must be finite")
    if isinstance(params, ShallowParams):
        z = _layer(u, params.w, params.b)
        return z, (u, z)
    if isinstance(params, DeepParams):
        caches = []
        cols = []
        for net in params.nets:
            acts = [u]
            for w, b in zip(net.weights, net.biases):
                acts.append(_layer(acts[-1], w, b))
            zr = _layer(acts[-1], net.w_out, net.b_out)
            caches.append((acts, zr))
            cols.append(zr)
        return np.stack(cols, axis=1), caches
    acts = [u]
    for w, b in zip(params.weights, params.biases):
        acts.append(_layer(acts[-1], w, b))
    z = _layer(acts[-1], params.w_out, params.b_out)
    return z, (acts, z)


def _backward_trunk(weights, acts, da, ones):
    """Gradients of the hidden layers given dloss/d(last hidden activation).

    The input layer's activation gradient is never needed, so the loop stops
    one product short.  Bias gradients are column sums taken as ones @ dpre.
    """
    dws: list[np.ndarray] = []
    dbs: list[np.ndarray] = []
    for l in range(len(weights) - 1, -1, -1):
        a = acts[l + 1]
        dpre = a * (1.0 - a)
        dpre *= da
        dws.append(dpre.T @ acts[l])
        dbs.append(ones @ dpre)
        if l:
            da = dpre @ weights[l]
    return dws[::-1], dbs[::-1]


def backward_constituents(
    params: ModelParams, arch: Architecture, cache, dz: np.ndarray
) -> ModelParams:
    """Pull a gradient dZ (M x R) back onto the network parameters."""
    ones = np.ones(dz.shape[0])
    if isinstance(params, ShallowParams):
        u, z = cache
        dpre = z * (1.0 - z)
        dpre *= dz
        return ShallowParams(w=dpre.T @ u, b=ones @ dpre)
    if isinstance(params, DeepParams):
        nets = []
        for r, net in enumerate(params.nets):
            acts, zr = cache[r]
            dout = zr * (1.0 - zr)
            dout *= dz[:, r]
            dw_out = acts[-1].T @ dout
            db_out = np.asarray(ones @ dout)
            dws, dbs = _backward_trunk(
                net.weights, acts, dout[:, None] * net.w_out, ones
            )
            nets.append(DeepNet(dws, dbs, dw_out, db_out))
        return DeepParams(nets)
    acts, z = cache
    dpre_out = z * (1.0 - z)
    dpre_out *= dz
    dws, dbs = _backward_trunk(params.weights, acts, dpre_out @ params.w_out, ones)
    return DeepSharedParams(dws, dbs, dpre_out.T @ acts[-1], ones @ dpre_out)


def eval_constituents(params: ModelParams, arch: Architecture, points: np.ndarray) -> np.ndarray:
    """Constituent values g_r(point_i) as an (M, R) matrix."""
    z, _ = forward_constituents(params, arch, points)
    return z


def fitted_fields(
    params: ModelParams, arch: Architecture, xi: np.ndarray, grid: Grid
) -> FieldMatrix:
    """The N fitted fields Xi Z^T evaluated on the grid."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2 or xi.shape[1] != arch.r:
        raise ValueError(f"coefficients must be (N, {arch.r}), got {xi.shape}")
    z = eval_constituents(params, arch, grid.coordinates())
    return FieldMatrix(grid, xi @ z.T)


def lambda_from_coefficients(xi: np.ndarray, center: bool = True) -> np.ndarray:
    """Coefficient second-moment matrix, PSD by construction.

    Centered: N^{-1} (Xi - mean)^T (Xi - mean); uncentered: N^{-1} Xi^T Xi.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if center:
        xi = xi - xi.mean(axis=0)
    lam = xi.T @ xi / xi.shape[0]
    return (lam + lam.T) / 2.0


def count_parameters(arch: Architecture, include_lambda: bool = True) -> int:
    """Free-parameter count of the architecture (optionally plus Lambda)."""
    dims = _layer_dims(arch)
    if arch.variant == SHALLOW:
        n = arch.r * (arch.d + 1)
    elif arch.variant == DEEP:
        full = [*dims, 1]
        n = arch.r * sum((full[l] + 1) * full[l + 1] for l in range(len(full) - 1))
    else:
        n = sum((dims[l] + 1) * dims[l + 1] for l in range(len(dims) - 1))
        n += arch.r * (dims[-1] + 1)
    if include_lambda:
        n += arch.r * (arch.r + 1) // 2
    return n


def census(params: ModelParams) -> int:
    """Number of scalar entries actually stored in a parameter set."""
    return sum(int(a.size) for a in _param_arrays(params))


def _param_arrays(params: ModelParams) -> list[np.ndarray]:
    if isinstance(params, ShallowParams):
        return [params.w, params.b]
    if isinstance(params, DeepParams):
        out = []
        for net in params.nets:
            for w, b in zip(net.weights, net.biases):
                out += [w, b]
            out += [net.w_out, net.b_out]
        return out
    out = []
    for w, b in zip(params.weights, params.biases):
        out += [w, b]
    return out + [params.w_out, params.b_out]


def _param_shapes(arch: Architecture) -> list[tuple[int, ...]]:
    """Shapes of the parameter arrays in canonical (pack) order.

    Shallow has the deepshared layout with no hidden layers.
    """
    dims = _layer_dims(arch)
    trunk = []
    for l in range(arch.depth):
        trunk += [(dims[l + 1], dims[l]), (dims[l + 1],)]
    if arch.variant == DEEP:
        return (trunk + [(dims[-1],), ()]) * arch.r
    return trunk + [(arch.r, dims[-1]), (arch.r,)]


def pack_params(params: ModelParams) -> np.ndarray:
    """Flatten all parameter arrays into one vector (canonical order)."""
    arrays = _param_arrays(params)
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)


def unpack_params(vec: np.ndarray, arch: Architecture) -> ModelParams:
    """Inverse of pack_params for the given architecture.

    The returned arrays are views into `vec` (no copy): writing to either
    changes both.
    """
    vec = np.asarray(vec, dtype=float)
    shapes = _param_shapes(arch)
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != vec.size:
        raise ValueError(f"vector length {vec.size} does not match architecture")
    arrays = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        arrays.append(vec[offset : offset + size].reshape(shape))
        offset += size
    if arch.variant == SHALLOW:
        return ShallowParams(*arrays)
    k = 2 * arch.depth
    if arch.variant == DEEP:
        nets = []
        for r in range(arch.r):
            net = arrays[r * (k + 2) : (r + 1) * (k + 2)]
            nets.append(DeepNet(net[0:k:2], net[1:k:2], net[k], net[k + 1]))
        return DeepParams(nets)
    return DeepSharedParams(arrays[0:k:2], arrays[1:k:2], arrays[k], arrays[k + 1])


def _check_lambda(lam: np.ndarray, r: int) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (r, r):
        raise ValueError(f"lambda must be {r}x{r}, got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    scale = max(np.abs(lam).max(), 1e-300)
    if np.abs(lam - lam.T).max() > 1e-12 * scale:
        raise ValueError("lambda must be symmetric")
    trace = np.trace(lam)
    smallest = np.linalg.eigvalsh(lam)[0]
    if smallest < -1e-10 * max(trace, 0.0) - 1e-300:
        raise ValueError(
            f"lambda is not positive semi-definite (min eigenvalue {smallest:g})"
        )
    return (lam + lam.T) / 2.0


@dataclass(frozen=True)
class FittedCovariance:
    """Frozen constituents plus the PSD coefficient matrix Lambda.

    `mean_coeffs`, when present, expresses the estimated mean field as
    sum_r mean_coeffs[r] g_r (produced by joint mean-and-covariance fitting).
    """

    arch: Architecture
    params: ModelParams = field(repr=False)
    lam: np.ndarray = field(repr=False)
    mean_coeffs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lambda(self.lam, self.arch.r))
        if self.mean_coeffs is not None:
            mc = np.asarray(self.mean_coeffs, dtype=float)
            if mc.shape != (self.arch.r,):
                raise ValueError(f"mean coefficients must have length {self.arch.r}")
            object.__setattr__(self, "mean_coeffs", mc)

    def constituents(self, points: np.ndarray) -> np.ndarray:
        return eval_constituents(self.params, self.arch, points)

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel values c(u_i, v_i) for paired rows; exactly swap-symmetric.

        Both quadratic-form orders are averaged so that swapping u and v
        changes only the order of a commutative float addition.
        """
        zu = self.constituents(u)
        zv = self.constituents(v)
        a = ((zu @ self.lam) * zv).sum(axis=1)
        b = ((zv @ self.lam) * zu).sum(axis=1)
        return (a + b) / 2.0

    def kernel_at(self, u, v) -> float:
        """Kernel value at a single pair of points."""
        u = np.asarray(u, dtype=float)[None, :]
        v = np.asarray(v, dtype=float)[None, :]
        return float(self.kernel_pairs(u, v)[0])

    def mean_at(self, points: np.ndarray) -> np.ndarray:
        """Estimated mean field at the given points (zero if not estimated)."""
        z = self.constituents(points)
        if self.mean_coeffs is None:
            return np.zeros(z.shape[0])
        return z @ self.mean_coeffs


def _format_floats(values: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in np.asarray(values).ravel())


def save_model(path, model: FittedCovariance) -> None:
    """Write a model as versioned UTF-8 text, one labeled block per array.

    Floats carry 17 significant digits, which round-trips binary64 exactly.
    """
    arch = model.arch
    lines = [MODEL_HEADER, f"arch {arch.variant}", f"R {arch.r}", f"d {arch.d}"]
    if arch.widths:
        lines.append("widths " + " ".join(str(p) for p in arch.widths))
    for name, array in _named_arrays(model.params):
        shape = " ".join(str(s) for s in array.shape) or "scalar"
        lines.append(f"layer {name} {shape}")
        lines.append(_format_floats(array))
    lines.append(f"lambda {arch.r}")
    for i in range(arch.r):
        lines.append(_format_floats(model.lam[i, : i + 1]))
    if model.mean_coeffs is not None:
        lines.append(f"mean {arch.r}")
        lines.append(_format_floats(model.mean_coeffs))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _named_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    if isinstance(params, ShallowParams):
        return [("w", params.w), ("b", params.b)]
    if isinstance(params, DeepParams):
        out = []
        for r, net in enumerate(params.nets):
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                out += [(f"net{r}.W{l + 1}", w), (f"net{r}.b{l + 1}", b)]
            out += [(f"net{r}.wout", net.w_out), (f"net{r}.bout", net.b_out)]
        return out
    out = []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        out += [(f"W{l + 1}", w), (f"b{l + 1}", b)]
    return out + [("Wout", params.w_out), ("bout", params.b_out)]


def load_model(path) -> FittedCovariance:
    """Read a model file written by save_model, validating shapes and Lambda."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError(f"unexpected end of file while reading {what}")
        line = lines[pos]
        pos += 1
        return line

    def ints(parts: list[str], what: str) -> tuple[int, ...]:
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ModelFormatError(f"{what}: {exc}") from exc

    def floats(line: str, count: int, what: str) -> np.ndarray:
        parts = line.split()
        if len(parts) != count:
            raise ModelFormatError(f"{what}: expected {count} values, got {len(parts)}")
        try:
            out = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise ModelFormatError(f"{what}: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise ModelFormatError(f"{what}: non-finite value")
        return out

    if take("header") != MODEL_HEADER:
        raise ModelFormatError(f"bad header, expected {MODEL_HEADER!r}")
    fields_: dict[str, str] = {}
    for key in ("arch", "R", "d"):
        line = take(key).split(maxsplit=1)
        if len(line) != 2 or line[0] != key:
            raise ModelFormatError(f"expected '{key} <value>' line")
        fields_[key] = line[1]
    variant = fields_["arch"]
    r, d = ints([fields_["R"], fields_["d"]], "R and d")
    widths: tuple[int, ...] = ()
    if variant != SHALLOW:
        line = take("widths").split()
        if not line or line[0] != "widths":
            raise ModelFormatError("expected 'widths ...' line for deep variants")
        widths = ints(line[1:], "widths")
    try:
        arch = Architecture(variant, r, d, widths)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

    template = unpack_params(np.zeros(count_parameters(arch, include_lambda=False)), arch)
    for name, array in _named_arrays(template):
        head = take(f"layer {name}").split()
        if len(head) < 2 or head[0] != "layer" or head[1] != name:
            raise ModelFormatError(f"expected 'layer {name} ...' block")
        declared = ints([s for s in head[2:] if s != "scalar"], f"layer {name} shape")
        if declared != array.shape:
            raise ModelFormatError(
                f"layer {name}: declared shape {declared} != expected {array.shape}"
            )
        array[...] = floats(take(f"{name} values"), array.size, name).reshape(array.shape)

    head = take("lambda").split()
    if head[:1] != ["lambda"] or len(head) != 2 or ints(head[1:], "lambda R") != (r,):
        raise ModelFormatError("expected 'lambda R' block")
    lam = np.zeros((r, r))
    for i in range(r):
        row = floats(take(f"lambda row {i}"), i + 1, f"lambda row {i}")
        lam[i, : i + 1] = row
        lam[: i + 1, i] = row
    mean_coeffs = None
    line = take("trailer")
    if line.startswith("mean"):
        mean_coeffs = floats(take("mean values"), r, "mean coefficients")
        line = take("trailer")
    if line != "end":
        raise ModelFormatError(f"expected 'end', got {line!r}")
    try:
        return FittedCovariance(arch, template, lam, mean_coeffs)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
