"""Weight-sharing ReLU networks.

A network of depth L maps d_1 -> d_{L+1} through L-1 hidden layers of the
form

    f_i(v) = relu( sum_j R_i^(j) (W_i Q_i^(j) v + b_i) ),

followed by an affine output layer.  Q_i^(j) / R_i^(j) are permutations, so
one weight block W_i is shared across all replicas of a layer; with a single
identity replica per layer the class reduces to a plain MLP.  Permutations
are stored as index arrays.  Since the replica sum is linear in v, each
layer is evaluated as one dense matrix A_i = sum_j R_i^(j) W_i Q_i^(j)
(`replica_sum`), and dense gradients are folded back onto the shared block
by its adjoint (`replica_fold`).  Both loop over the layer's replicas,
each going through its own pair of permutations.  A plain layer (one
identity replica) is its own dense layer: the architecture marks it once
(`plain`), and a pass uses its W_i, b_i and their gradients as they are,
with neither sum nor fold.

`value_and_grads` runs the network once per call: the forward pass keeps
only each layer's post-ReLU activations, and reverse mode takes its ReLU
masks from them (relu(z) > 0 exactly where z > 0) instead of running the
forward pass again.  It returns the value and the parameter gradients,
stopping at the first layer's: only `backward` forms the input gradient.
Each bias gradient, a column sum of the layer's delta, is taken as one
product with a ones vector, ones @ delta, which BLAS runs far faster at
these shapes than numpy's row-by-row `sum(axis=0)`.

A `Workspace` holds the per-layer arrays a pass writes into: the hidden
activations, and for reverse mode each hidden layer's delta and bool ReLU
mask, and the (rows,) ones vector of the bias gradients.  It also holds
one (rows, d_1) input buffer, which the pass only reads: a caller that
builds its input from parts (a score network's x_t and t) writes them
there side by side and hands the buffer to the pass, instead of
concatenating a fresh input per call.  A loop that evaluates the network
step after step (training, sampling) owns one workspace and hands it to
every `forward` or `value_and_grads` call, so no step allocates or
page-faults them afresh; the arrays are reallocated only when the row count changes, and the
input and backward-only ones only on first use.  A call without a
workspace makes a throwaway one that dies with the call, so a one-off
evaluation keeps nothing alive.  The workspace never holds a result: the
network output and every gradient are fresh arrays the caller owns, so a
kept output is not overwritten by the next call.  Results are
bit-identical with and without a reused workspace.

A pass runs in the dtype of the parameters: the input is cast to it and
the workspace's arrays are of it.  Training passes are float32, on the
float32 copy `diffusion.AdamState` keeps of its float64 master weights,
in a float32 workspace the training loop owns; a score built for sampling
evaluates a float32 copy of its parameters (`WsnnParams.astype`) in a
float32 workspace of its own.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidSize, PreconditionViolated


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}; applying to v gives v[idx]."""

    idx: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.int64)
        object.__setattr__(self, "idx", idx)
        if idx.ndim != 1 or not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise InvalidSize("permutation must be a bijection on 0..n-1")

    @property
    def size(self):
        return self.idx.size

    @staticmethod
    def identity(n):
        return Permutation(np.arange(n, dtype=np.int64))


@dataclass(frozen=True)
class WsnnArchitecture:
    """Network class parameters (depth, widths, replicas, permutations, s, M)."""

    widths: tuple
    replicas: tuple
    q_perms: tuple  # per hidden layer: tuple of m_i Permutations of size d_i
    r_perms: tuple  # per hidden layer: tuple of m_i Permutations of size d_{i+1}
    sparsity: int = 0
    weight_bound: float = 0.0
    weight_masks: tuple = None  # optional per-layer 0/1 arrays, None = dense
    plain: tuple = field(init=False, repr=False, compare=False)  # per hidden layer

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        replicas = tuple(int(m) for m in self.replicas)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "replicas", replicas)
        if len(widths) < 3:
            raise InvalidSize("depth must be at least 2 (widths needs >= 3 entries)")
        if min(widths) < 1:
            raise InvalidSize(f"every width must be >= 1, got {widths}")
        if len(replicas) != self.depth - 1:
            raise InvalidSize("need one replica count per hidden layer")
        if len(self.q_perms) != self.depth - 1 or len(self.r_perms) != self.depth - 1:
            raise InvalidSize("need one permutation set per hidden layer")
        for i, m in enumerate(replicas):
            if m < 1 or len(self.q_perms[i]) != m or len(self.r_perms[i]) != m:
                raise InvalidSize(f"layer {i}: |Q|=|R|={m} permutations required")
            for q in self.q_perms[i]:
                if q.size != widths[i]:
                    raise InvalidSize(f"layer {i}: Q permutations must have size {widths[i]}")
            for r in self.r_perms[i]:
                if r.size != widths[i + 1]:
                    raise InvalidSize(f"layer {i}: R permutations must have size {widths[i + 1]}")
        object.__setattr__(self, "plain", tuple(  # one identity replica
            m == 1 and all(np.array_equal(p[0].idx, np.arange(p[0].size)) for p in qr)
            for m, qr in zip(replicas, zip(self.q_perms, self.r_perms))))
        masks = self.weight_masks
        if masks is not None:
            if not isinstance(masks, (tuple, list)) or len(masks) != self.depth:
                raise InvalidSize("need one weight mask (or None) per layer")
            for i, m in enumerate(masks):
                if m is None:
                    continue
                m = np.asarray(m)
                if m.shape != self.layer_shape(i) or not np.all((m == 0) | (m == 1)):
                    raise InvalidSize(f"layer {i}: weight mask must be None or a 0/1 "
                                      f"array of shape {self.layer_shape(i)}")

    @property
    def depth(self):
        return len(self.widths) - 1

    @property
    def input_dim(self):
        return self.widths[0]

    @property
    def output_dim(self):
        return self.widths[-1]

    def layer_shape(self, i):
        return self.widths[i + 1], self.widths[i]


def mlp(widths, sparsity=0, weight_bound=0.0):
    """Plain sparse-MLP special case: one identity replica per hidden layer."""
    widths = tuple(int(w) for w in widths)
    n_hidden = len(widths) - 2
    q = tuple((Permutation.identity(widths[i]),) for i in range(n_hidden))
    r = tuple((Permutation.identity(widths[i + 1]),) for i in range(n_hidden))
    return WsnnArchitecture(widths, (1,) * n_hidden, q, r, sparsity, weight_bound)


@dataclass
class WsnnParams:
    weights: list  # W_i of shape (d_{i+1}, d_i)
    biases: list   # b_i of shape (d_{i+1},)

    def copy(self):
        return WsnnParams([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases])

    def astype(self, dtype):
        """A copy with every array cast to dtype."""
        return WsnnParams([w.astype(dtype) for w in self.weights],
                          [b.astype(dtype) for b in self.biases])


def init_params(arch, rng):
    """He-style fan-in initialisation, deterministic per rng stream."""
    weights, biases = [], []
    for i in range(arch.depth):
        dout, din = arch.layer_shape(i)
        scale = math.sqrt(2.0 / din)
        weights.append(scale * rng.normal_matrix(dout, din))
        biases.append(np.zeros(dout))
    params = WsnnParams(weights, biases)
    apply_masks(params, arch)
    return params


def apply_masks(params, arch):
    if arch.weight_masks is not None:
        for w, m in zip(params.weights, arch.weight_masks):
            if m is not None:
                w *= m
    return params


def _as_batch(x, width, dtype):
    x = np.asarray(x, dtype=dtype)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionMismatch(f"input width {x.shape[-1]} != d_1 = {width}")
    return x, single


def _check_params(arch, params):
    """The dtype a pass on params runs in, once their shapes fit arch."""
    if len(params.weights) != arch.depth or len(params.biases) != arch.depth:
        raise DimensionMismatch("params depth does not match architecture")
    for i in range(arch.depth):
        if params.weights[i].shape != arch.layer_shape(i):
            raise DimensionMismatch(f"W_{i + 1} shape {params.weights[i].shape} "
                                    f"!= {arch.layer_shape(i)}")
        if params.biases[i].shape != (arch.widths[i + 1],):
            raise DimensionMismatch(f"b_{i + 1} shape {params.biases[i].shape} "
                                    f"!= {(arch.widths[i + 1],)}")
    return params.weights[0].dtype


def replica_sum(W, b, q_perms, r_perms):
    """Dense (A, c) = (sum_j R^(j) W Q^(j), sum_j R^(j) b) of one layer.

    Replica j routes input coordinate q.idx[d] into weight column d and
    weight row k onto output coordinate r.idx[k], so W[k, d] lands on
    A[r.idx[k], q.idx[d]].  The replicas are added in order onto zeros, so
    an entry that every replica leaves at -0.0 comes out +0.0;
    `replica_fold` is the exact adjoint."""
    A, c = np.zeros_like(W), np.zeros_like(b)
    for q, r in zip(q_perms, r_perms):
        # exact: a Permutation has no repeated index, so no entry is hit twice
        A[np.ix_(r.idx, q.idx)] += W
        c[r.idx] += b
    return A, c


def replica_fold(dA, dc, q_perms, r_perms):
    """Gradients on the shared (W, b) from gradients on the dense (A, c):
    each replica reads dA and dc where `replica_sum` put its copy."""
    dW, db = np.zeros_like(dA), np.zeros_like(dc)
    for q, r in zip(q_perms, r_perms):
        dW += dA[np.ix_(r.idx, q.idx)]
        db += dc[r.idx]
    return dW, db


class Workspace:
    """The (rows, width) arrays one pass writes per hidden layer, and the
    network input buffer, reused by every call that is handed this
    workspace; see the module docstring.  They are of `dtype`, the dtype
    of the parameters of every pass run here."""

    def __init__(self, arch, dtype=np.float64):
        self.input_dim = arch.input_dim
        self.widths = arch.widths[1:-1]
        self.dtype = np.dtype(dtype)
        self.rows = None
        self.input = self.acts = self.deltas = self.masks = self.ones = None

    def _fit(self, rows):
        if rows != self.rows:
            self.rows = rows
            self.acts = [np.empty((rows, w), self.dtype) for w in self.widths]
            self.input = self.deltas = self.masks = self.ones = None

    def inputs(self, rows):
        """The (rows, d_1) network input buffer, for a caller that assembles
        the input in place (a score network's x and t side by side) and
        then runs the pass on it in this workspace."""
        self._fit(rows)
        if self.input is None:
            self.input = np.empty((rows, self.input_dim), self.dtype)
        return self.input

    def hidden(self, rows):
        """Post-ReLU activation buffers for a pass over `rows` rows."""
        self._fit(rows)
        return self.acts

    def reverse(self, rows):
        """(deltas, ReLU masks, ones) for reverse mode over `rows` rows:
        the per-layer buffers and the (rows,) ones vector whose product
        with a delta is its bias gradient."""
        self._fit(rows)
        if self.deltas is None:
            self.deltas = [np.empty((rows, w), self.dtype) for w in self.widths]
            self.masks = [np.empty((rows, w), dtype=bool) for w in self.widths]
            self.ones = np.ones(rows, self.dtype)
        return self.deltas, self.masks, self.ones


def _workspace(arch, workspace, dtype):
    if workspace is None:
        return Workspace(arch, dtype)
    if (workspace.input_dim, workspace.widths) != (arch.input_dim, arch.widths[1:-1]):
        raise DimensionMismatch(f"workspace of input width {workspace.input_dim} and "
                                f"hidden widths {workspace.widths} does not fit "
                                f"{arch.widths}")
    if workspace.dtype != dtype:
        raise PreconditionViolated(f"{workspace.dtype} workspace for a {dtype} pass")
    return workspace


def forward(arch, params, x, workspace=None):
    """Evaluate the network; accepts a single vector or a (B, d_1) batch.
    The output is a fresh array; the hidden layers go to `workspace`."""
    dtype = _check_params(arch, params)
    a, single = _as_batch(x, arch.input_dim, dtype)
    out = _forward_cache(arch, params, a, _workspace(arch, workspace, dtype))[0]
    return out[0] if single else out


def _forward_cache(arch, params, a, ws):
    """(output, dense layers, [input, post-ReLU activations]) of one pass
    over the (B, d_1) batch a, whose dtype is that of params and of ws.
    Each hidden layer is computed in place in its `ws` buffer (product,
    bias, ReLU); only the output is a fresh array."""
    mats, bs = effective_layers(arch, params)
    acts = [a]
    for A, b, z in zip(mats[:-1], bs[:-1], ws.hidden(a.shape[0])):
        np.matmul(a, A.T, out=z)
        z += b
        a = np.maximum(z, 0.0, out=z)
        acts.append(a)
    out = a @ mats[-1].T
    out += bs[-1]
    return out, mats, acts


def value_and_grads(arch, params, x, head, workspace=None):
    """One network pass on the (B, d_1) batch x, then reverse mode through it.

    head(out) -> (value, grad_output) turns the (B, d_{L+1}) output into a
    value and its gradient with respect to the output.  Returns (value,
    WsnnParams of parameter gradients), fresh arrays; the per-layer arrays
    go to `workspace`, where reverse mode stops, leaving the first layer's
    delta.  Each bias gradient is the product ones @ delta with the
    workspace's ones vector (ones @ grad_output at the output layer).
    Shared-weight gradients accumulate over all replicas of a layer; the
    ReLU derivative at exactly 0 is taken as 0.
    """
    dtype = _check_params(arch, params)
    a, _ = _as_batch(x, arch.input_dim, dtype)
    ws = _workspace(arch, workspace, dtype)
    out, mats, acts = _forward_cache(arch, params, a, ws)
    value, g = head(out)
    if g.shape != out.shape:
        raise DimensionMismatch("grad_output batch size does not match input")

    deltas, masks, ones = ws.reverse(a.shape[0])
    dws, dbs = [None] * arch.depth, [None] * arch.depth
    dws[-1] = g.T @ acts[-1]
    dbs[-1] = ones @ g
    delta = np.matmul(g, mats[-1], out=deltas[-1])
    for i in range(arch.depth - 2, -1, -1):
        delta *= np.greater(acts[i + 1], 0.0, out=masks[i])
        dws[i], dbs[i] = delta.T @ acts[i], ones @ delta
        if not arch.plain[i]:
            dws[i], dbs[i] = replica_fold(dws[i], dbs[i], arch.q_perms[i], arch.r_perms[i])
        if i:
            delta = np.matmul(delta, mats[i], out=deltas[i - 1])
    return value, apply_masks(WsnnParams(dws, dbs), arch)


def backward(arch, params, x, grad_output):
    """Reverse-mode gradients of sum(grad_output * forward(x)).

    Returns (WsnnParams of gradients, gradient w.r.t. x); see
    `value_and_grads`.  The input gradient is the first layer's delta,
    which that pass leaves in its workspace, times the first dense layer.
    """
    ws = Workspace(arch, _check_params(arch, params))
    g, _ = _as_batch(grad_output, arch.output_dim, ws.dtype)
    _, grads = value_and_grads(arch, params, x, lambda out: (None, g), ws)
    dx = ws.deltas[0] @ effective_layers(arch, params)[0][0]
    return grads, (dx[0] if np.ndim(x) == 1 else dx)


def effective_layers(arch, params):
    """All layers as plain (A_i, b_i) affine maps: a plain hidden layer and
    the output layer are their own (W_i, b_i), the very arrays of params,
    and every other hidden layer is its materialised replica sum."""
    mats, bs = list(params.weights), list(params.biases)
    for i, plain in enumerate(arch.plain):
        if not plain:
            mats[i], bs[i] = replica_sum(params.weights[i], params.biases[i],
                                         arch.q_perms[i], arch.r_perms[i])
    return mats, bs


# --- convolution as a weight-sharing layer ---------------------------------


@dataclass(frozen=True)
class ConvAsWsnn:
    input_side: int
    filter_side: int
    d_in: int
    d_out: int
    m: int
    q_perms: tuple
    r_perms: tuple

    def place_filter(self, filter_vec):
        """Sparse shared-weight template: filter in row 0, zeros elsewhere."""
        w = np.asarray(filter_vec, dtype=np.float64).ravel()
        if w.size != self.filter_side ** 2:
            raise InvalidSize("filter length must be filter_side**2")
        W = np.zeros((self.d_out, self.d_in))
        W[0, :w.size] = w
        return W

    def materialize(self, filter_vec):
        return replica_sum(self.place_filter(filter_vec), np.zeros(self.d_out),
                           self.q_perms, self.r_perms)[0]


def conv_as_wsnn(input_side, filter_side):
    """Permutation pairs realising a valid 2-D convolution as one shared block.

    Output j (at grid position (r, c)) reads its input window through Q^(j)
    so that row 0 of the template hits the window pixels, and R^(j) swaps
    rows 0 and j so each replica lands on its own output coordinate:
    sum_j R^(j) W Q^(j) equals the valid-convolution matrix.
    """
    if filter_side < 1 or input_side < 1 or filter_side > input_side:
        raise InvalidSize("need 1 <= filter_side <= input_side")
    out_side = input_side - filter_side + 1
    d_in = input_side ** 2
    d_out = out_side ** 2
    s = filter_side ** 2
    q_perms, r_perms = [], []
    for j in range(d_out):
        r, c = divmod(j, out_side)
        window = [(r + fr) * input_side + (c + fc)
                  for fr in range(filter_side) for fc in range(filter_side)]
        rest = sorted(set(range(d_in)) - set(window))
        q_perms.append(Permutation(np.array(window + rest, dtype=np.int64)))
        ridx = np.arange(d_out, dtype=np.int64)
        ridx[0], ridx[j] = j, 0
        r_perms.append(Permutation(ridx))
    return ConvAsWsnn(input_side, filter_side, d_in, d_out, d_out,
                      tuple(q_perms), tuple(r_perms))


# --- complexity diagnostics -------------------------------------------------


def covering_bound_numerator(arch, box_half_width):
    """4 L^2 |d|^2 (|m| |d| (M v 1))^L (L + C + 2), the log-covering numerator."""
    L = arch.depth
    d_inf = max(arch.widths)
    m_inf = max(arch.replicas) if arch.replicas else 1
    m_or_one = max(arch.weight_bound, 1.0)
    return (4.0 * L ** 2 * d_inf ** 2 * (m_inf * d_inf * m_or_one) ** L
            * (L + box_half_width + 2.0))


def covering_log_bound(arch, box_half_width, delta):
    """(s+1) log(numerator / delta): metric-entropy bound of the class."""
    if not all(math.isfinite(v) and v > 0 for v in (delta, box_half_width)):
        raise PreconditionViolated("delta and box_half_width must be finite and positive")
    num = covering_bound_numerator(arch, box_half_width)
    return (arch.sparsity + 1) * (math.log(num) - math.log(delta))

