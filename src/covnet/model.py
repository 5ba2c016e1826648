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

The deep variants have L >= 1 hidden layers, each R wide, so an
architecture is fixed by its family, R, the input dimension d and L.

All three share one engine on one flat parameter vector whose layout comes
from the architecture alone (see `_layer_shapes`): every layer, the output
layer included, is grouped along a leading axis of G stacks.  Shallow is
deepshared with no hidden layers (G = 1, all R output rows in the one
stack), and deep is deepshared with G = R stacks of one output row each.

Initial parameters place every unit's hyperplane across its input's range
(`init_params`), so that the constituents start out spanning far more than
the affine functions of u that near-linear sigmoids on the unit cube give,
and the initial coefficients have no component along the constituents'
means and a fixed field variance, so that the initial kernel has no flat
part and the same scale for every seed.

During fitting the kernel is represented through an N x R coefficient matrix
Xi: the fitted fields are Xi Z^T with Z the constituents evaluated on the
grid.  At the end of a fit Xi is solved in closed form, as the ridge
least-squares coefficients Xi* of the centered fields on the final
constituents, and Lambda is frozen as their second moment Xi*^T Xi* / N,
the matrix that the last trace row scores, which makes it PSD by
construction.

The engine is feature-major and homogeneous: every activation, the inputs
included, is a (width + 1, points) array whose last row is ones, so each
affine layer is one product [W | b] a with the points along the long,
contiguous axis.  Z comes back as the (M, R) transposed view of an (R, M)
array.  One walk (`_walk`) goes through the layers a block of points at a
time: evaluation keeps no activation, and training has each block record
the activations that the backward pass reads.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelFormatError
from .fields import _point_pairs, _points
from .rng import gaussian, make_rng

MODEL_HEADER = "covnet-model v1"

SHALLOW = "shallow"
DEEP = "deep"
DEEPSHARED = "deepshared"
VARIANTS = (SHALLOW, DEEP, DEEPSHARED)

# points per block of the constituent walk, so that its temporaries are
# p x _POINT_BLOCK however many points are asked for
_POINT_BLOCK = 4096

# probe points, and steepness range before division by the input's range, of
# the units that init_params places across the domain; dividing by the
# probes' standard deviation instead made units about 3.5x steeper, and deep
# fits then missed the 1e-5 central-difference gradient check (2.0e-5)
_INIT_PROBES = 64
_INIT_STEEPNESS = (2.0, 20.0)
# variance of the initial fitted fields, averaged over the probes
_INIT_FIELD_VARIANCE = 0.1


def _is_count(value) -> bool:
    """An integer, and not a bool (True would count as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Architecture:
    """Constituent family, count R, input dimension d, and depth L.

    Each of the L hidden layers is R wide; shallow has none (L = 0), the
    deep variants at least one.
    """

    variant: str
    r: int
    d: int
    depth: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name, value in (("R", self.r), ("d", self.d), ("L", self.depth)):
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.r < 1 or self.d < 1:
            raise ValueError(f"R and d must be >= 1, got R = {self.r}, d = {self.d}")
        if self.variant == SHALLOW and self.depth:
            raise ValueError("shallow networks have no hidden layers")
        if self.variant != SHALLOW and self.depth < 1:
            raise ValueError("deep variants need at least one hidden layer")

    @property
    def groups(self) -> int:
        """Number of layer stacks G: R one-output nets for deep, else 1 stack.

        Each stack feeds R / G of the constituents.
        """
        return self.r if self.variant == DEEP else 1

    @staticmethod
    def shallow(r: int, d: int) -> "Architecture":
        return Architecture(SHALLOW, r, d)

    @staticmethod
    def deep(r: int, d: int, depth: int) -> "Architecture":
        return Architecture(DEEP, r, d, depth)

    @staticmethod
    def deepshared(r: int, d: int, depth: int) -> "Architecture":
        return Architecture(DEEPSHARED, r, d, depth)


@functools.lru_cache(maxsize=None)
def _layer_shapes(arch: Architecture) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(W, b) shapes of every layer in vector order: hidden layers, then output.

    Layer l holds W (G, p_l, p_{l-1}) and b (G, p_l), with G = R independent
    nets for deep and G = 1 shared trunk otherwise; p_0 = d, every hidden
    width is R, and the output layer's width is the R / G constituents each
    stack feeds.  Shallow has no hidden layers.
    Memoized per architecture: every training step asks for it twice.
    """
    g = arch.groups
    dims = [arch.d, *[arch.r] * arch.depth, arch.r // g]
    return tuple(
        ((g, dims[l + 1], dims[l]), (g, dims[l + 1])) for l in range(arch.depth + 1)
    )


def _param_views(vec: np.ndarray, arch: Architecture) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of every layer into the flat parameter vector, output last.

    The views share memory with `vec`: writing to either changes both.
    """
    vec = np.asarray(vec, dtype=float)
    shapes = [shape for layer in _layer_shapes(arch) for shape in layer]
    sizes = [math.prod(shape) for shape in shapes]
    if vec.ndim != 1 or vec.size != sum(sizes):
        raise ValueError(
            f"parameter vector of shape {vec.shape} does not match the "
            f"architecture's {sum(sizes)} parameters"
        )
    arrays = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        arrays.append(vec[offset : offset + size].reshape(shape))
        offset += size
    return list(zip(arrays[0::2], arrays[1::2]))


def init_params(arch: Architecture, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded initial parameter vector and coefficients, every unit cutting its input.

    Each unit's hyperplane passes through its input at a random probe point
    (Nguyen & Widrow 1990).  _INIT_PROBES probe points, uniform in the unit
    cube, are drawn first; then each stack is drawn layer by layer, ending
    with the output rows it feeds (one row per deep net, all R rows for a
    shared trunk).  A unit gets a direction theta uniform on the sphere, a
    steepness kappa log-uniform in _INIT_STEEPNESS over the range of the
    probes' projections theta . a (1 where that range is 0), and a centre
    c, the layer input a at one probe: w = kappa theta and b = -w . c.  The
    probes then pass through the finished layer.  The fields are never
    read.

    Coefficients Xi are standard normal, drawn after the weights.  For
    R > 1 each row then loses its component along m, the constituents'
    means over the probes, and Xi is scaled so that the initial fitted
    fields' variance g^T Lambda g, averaged over the probes, is
    _INIT_FIELD_VARIANCE.  Sigmoid outputs lie in (0, 1), so N(0, 1/R)
    rows gave the initial kernel a flat part near m^T Lambda m that the
    data lack, and fits spent their first steps shrinking it: over 24
    seeds on the benchmark's 25x25 deep and 40x40 deepshared rotated-sheet
    fits the initial loss was 3 to 46 times the data term.  Without the
    flat part the fields' variance still changed about two-fold from seed
    to seed, and the quality of short fits changed with it; the scaling
    removes that.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = make_rng(seed)
    probes = rng.random((_INIT_PROBES, arch.d))
    log_lo, log_hi = np.log(_INIT_STEEPNESS)
    params = np.zeros(count_parameters(arch, include_lambda=False))
    layers = _param_views(params, arch)
    rows = arch.r // arch.groups
    probe_z = np.empty((_INIT_PROBES, arch.r))  # Z at the probes
    for g in range(arch.groups):
        a = probes
        for w, b in layers:
            units, fan_in = w.shape[1:]
            theta = gaussian(rng, (units, fan_in))
            theta /= np.linalg.norm(theta, axis=1, keepdims=True)
            spread = np.ptp(a @ theta.T, axis=0)
            spread[spread == 0.0] = 1.0
            kappa = np.exp(rng.uniform(log_lo, log_hi, units)) / spread
            centre = a[rng.integers(a.shape[0], size=units)]
            w[g] = kappa[:, None] * theta
            b[g] = -np.sum(w[g] * centre, axis=1)
            s = a @ w[g].T
            s += b[g]
            a = _sigmoid_of_negated(np.negative(s, out=s))
        probe_z[:, g * rows : (g + 1) * rows] = a
    xi = gaussian(rng, (n, arch.r))
    # Xi = 0 is a stationary point of the loss, so a single constituent
    # keeps its coefficients; every output unit is 1/2 at its centre probe,
    # so the means are positive
    if arch.r > 1:
        m = probe_z.mean(axis=0)
        m /= np.linalg.norm(m)
        xi -= np.outer(xi @ m, m)
    variance = np.sum((xi.T @ xi / n) * (probe_z.T @ probe_z)) / _INIT_PROBES
    xi *= np.sqrt(_INIT_FIELD_VARIANCE / variance)
    return params, xi


def _sigmoid_of_negated(s: np.ndarray) -> np.ndarray:
    """Logistic sigmoid(-s) = 1 / (1 + exp(s)), computed in place on s and returned.

    exp(s) overflows to inf for s above about 709; the reciprocal then gives
    exactly 0, so the overflow is expected and silenced.
    """
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _negated_layers(params: np.ndarray, arch: Architecture) -> list[np.ndarray]:
    """-[W | b] of every layer, each (G, p_l, p_{l-1} + 1), output layer last.

    On an activation whose last row is ones, -[W | b] a is -(W a + b), so a
    layer is one product that feeds its negated pre-activation to the
    logistic without a bias or negation pass.
    """
    out = []
    for w, b in _param_views(params, arch):
        wb = np.empty((*w.shape[:2], w.shape[2] + 1))
        np.negative(w, out=wb[..., :-1])
        np.negative(b, out=wb[..., -1])
        out.append(wb)
    return out


def _homogeneous(u: np.ndarray) -> np.ndarray:
    """Input activation (d + 1, points): the rows of u (points, d) as columns, over ones."""
    a = np.empty((u.shape[1] + 1, u.shape[0]))
    a[:-1] = u.T
    a[-1] = 1.0
    return a


def _point_blocks(m: int, size: int = _POINT_BLOCK) -> list[slice]:
    """Blocks of `size` points starting at its multiples.

    A 1-point remainder joins the block before it: BLAS rounds a 1-column
    product differently from the same column inside a larger one.
    """
    starts = list(range(0, m, size))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], m])]


def _walk(params: np.ndarray, arch: Architecture, points: np.ndarray, cache: list | None = None):
    """Constituent values Z (M x R), walking the layers one point block at a time.

    Z is the transposed view of an (R, M) array, into whose rows each stack's
    output layer writes.  Without a cache each activation is dropped as soon
    as the next layer has it; with one, each block appends, per stack, every
    layer's activation without its ones row, its rows of Z^T last.
    """
    u = _points(points, arch.d)
    layers = _negated_layers(params, arch)
    rows = arch.r // arch.groups
    zt = np.empty((arch.r, u.shape[0]))
    for block in _point_blocks(u.shape[0]):
        inputs = _homogeneous(u[block])
        stacks = []
        for g in range(arch.groups):
            a, acts = inputs, [inputs[:-1]]
            for wb in layers[:-1]:
                h = np.empty((wb.shape[1] + 1, a.shape[1]))
                h[-1] = 1.0
                _sigmoid_of_negated(np.matmul(wb[g], a, out=h[:-1]))
                a = h
                if cache is not None:
                    acts.append(h[:-1])
            out = zt[g * rows : (g + 1) * rows, block]
            _sigmoid_of_negated(np.matmul(layers[-1][g], a, out=out))
            stacks.append([*acts, out])
        if cache is not None:
            cache.append(stacks)
    return zt.T


def backward_constituents(
    params: np.ndarray, arch: Architecture, cache, dz: np.ndarray
) -> np.ndarray:
    """Pull a gradient dZ (M x R) back onto the flat parameter vector.

    `cache` is what `_walk` recorded for the same points.  Works on dZ^T
    (R, M), contiguous when dz is the transposed view that `training._core`
    passes, over the walk's blocks; later blocks add to the first's layer
    gradients.  Each stack's layers are walked from the output down; the input
    layer's activation gradient is never needed, so each walk stops one
    product short.  A layer's W gradient is dpre @ a^T on its input a, and its
    bias gradient the row sums dpre @ ones.  Taking both from one product on
    the input with its ones row would round the bias gradients differently,
    and that alone moves a 5000-epoch shallow fit to another local minimum
    (criterion 5 of the acceptance tests, at two BLAS threads).  A one-row
    layer (deep's output) is pulled back by a broadcast multiply, which equals
    the K = 1 product bit for bit.
    """
    layers = _param_views(params, arch)
    grad = np.empty(np.size(params))
    grads = _param_views(grad, arch)
    dzt = dz.T
    rows = arch.r // arch.groups
    for i, (block, stacks) in enumerate(zip(_point_blocks(dzt.shape[1]), cache)):
        ones = np.ones(block.stop - block.start)
        for g, acts in enumerate(stacks):
            da = dzt[g * rows : (g + 1) * rows, block]
            for l in range(len(layers) - 1, -1, -1):
                a = acts[l + 1]
                dpre = 1.0 - a
                dpre *= a
                dpre *= da
                dw, db = grads[l]
                if i == 0:
                    np.matmul(dpre, acts[l].T, out=dw[g])
                    np.matmul(dpre, ones, out=db[g])
                else:
                    dw[g] += dpre @ acts[l].T
                    db[g] += dpre @ ones
                if l:
                    w = layers[l][0][g]
                    da = w.T * dpre if w.shape[0] == 1 else w.T @ dpre
    return grad


def eval_constituents(params: np.ndarray, arch: Architecture, points: np.ndarray) -> np.ndarray:
    """Constituent values g_r(point_i) as an (M, R) matrix, bit for bit training's Z.

    Keeps no activations: beyond its output it holds a few p x _POINT_BLOCK
    arrays however large M is.
    """
    return _walk(params, arch, points)


def count_parameters(arch: Architecture, include_lambda: bool = True) -> int:
    """Free-parameter count of the architecture (optionally plus Lambda).

    In closed form, so that a depth beyond memory is counted without building
    its layers: per stack, an input layer, L - 1 hidden layers, R / G outputs.
    """
    r, g, depth = arch.r, arch.groups, arch.depth
    if depth == 0:
        n = r * (arch.d + 1)
    else:
        n = g * (r * (arch.d + 1) + (depth - 1) * r * (r + 1) + r // g * (r + 1))
    if include_lambda:
        n += arch.r * (arch.r + 1) // 2
    return n


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
    # halves first, so that entries near the float maximum cannot overflow
    return 0.5 * lam + 0.5 * lam.T


@dataclass(frozen=True)
class FittedCovariance:
    """Frozen constituents plus the PSD coefficient matrix Lambda."""

    arch: Architecture
    params: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        _param_views(params, self.arch)  # rejects a vector of the wrong length
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "lam", _check_lambda(self.lam, self.arch.r))

    def constituents(self, points: np.ndarray) -> np.ndarray:
        return eval_constituents(self.params, self.arch, points)

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Kernel values c(u_i, v_i) for paired rows; exactly swap-symmetric.

        Both quadratic-form orders are averaged so that swapping u and v
        changes only the order of a commutative float addition.  Pairs are
        taken in the constituent walk's point blocks, so that the
        temporaries are a few _POINT_BLOCK x R arrays however many pairs
        are asked for, and each block's constituents have the bits of one
        walk over all the points.
        """
        u, v = _point_pairs(u, v, self.arch.d)
        out = np.empty(u.shape[0])
        for block in _point_blocks(u.shape[0]):
            zu = self.constituents(u[block])
            zv = self.constituents(v[block])
            a = ((zu @ self.lam) * zv).sum(axis=1)
            b = ((zv @ self.lam) * zu).sum(axis=1)
            out[block] = (a + b) / 2.0
        return out


def _format_floats(values: np.ndarray) -> str:
    return " ".join(f"{x:.17g}" for x in np.asarray(values).ravel())


def save_model(path, model: FittedCovariance) -> None:
    """Write a model as versioned UTF-8 text, one labeled block per array.

    Floats carry 17 significant digits, which round-trips binary64 exactly.
    """
    arch = model.arch
    lines = [MODEL_HEADER, f"arch {arch.variant}", f"R {arch.r}", f"d {arch.d}"]
    if arch.depth:
        lines.append("widths" + f" {arch.r}" * arch.depth)
    for name, array in _named_arrays(model.params, arch):
        shape = " ".join(str(s) for s in array.shape) or "scalar"
        lines.append(f"layer {name} {shape}")
        lines.append(_format_floats(array))
    lines.append(f"lambda {arch.r}")
    for i in range(arch.r):
        lines.append(_format_floats(model.lam[i, : i + 1]))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _named_arrays(params: np.ndarray, arch: Architecture) -> list[tuple[str, np.ndarray]]:
    """Model-file blocks in file order: (name, view into the parameter vector)."""
    *hidden, (w_out, b_out) = _param_views(params, arch)
    if arch.variant == SHALLOW:
        return [("w", w_out[0]), ("b", b_out[0])]
    deep = arch.variant == DEEP
    out = []
    for g in range(arch.groups):
        prefix = f"net{g}." if deep else ""
        for l, (w, b) in enumerate(hidden, start=1):
            out += [(f"{prefix}W{l}", w[g]), (f"{prefix}b{l}", b[g])]
        if deep:
            out += [(f"{prefix}wout", w_out[g, 0]), (f"{prefix}bout", b_out[g, 0, ...])]
    return out if deep else out + [("Wout", w_out[0]), ("bout", b_out[0])]


def load_model(path) -> FittedCovariance:
    """Read a model file written by save_model, validating shapes and Lambda."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8 text: {exc}") from exc
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
    depth = 0
    if variant != SHALLOW:
        line = take("widths").split()
        if not line or line[0] != "widths":
            raise ModelFormatError("expected 'widths ...' line for deep variants")
        if any(p != r for p in ints(line[1:], "widths")):
            raise ModelFormatError(f"every hidden width must be R = {r}")
        depth = len(line) - 1
    try:
        arch = Architecture(variant, r, d, depth)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    # checked before anything is allocated: a header cannot ask for more
    # values than the file holds
    n_values = count_parameters(arch)
    n_tokens = sum(len(ln.split()) for ln in lines[pos:])
    if n_values > n_tokens:
        raise ModelFormatError(
            f"header declares {n_values} values, the file holds {n_tokens} tokens"
        )

    params = np.zeros(count_parameters(arch, include_lambda=False))
    for name, array in _named_arrays(params, arch):
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
    line = take("trailer")
    if line.split()[:1] == ["mean"]:
        raise ModelFormatError("model has a 'mean' block: joint mean fitting was removed; refit")
    if line != "end":
        raise ModelFormatError(f"expected 'end', got {line!r}")
    try:
        return FittedCovariance(arch, params, lam)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
