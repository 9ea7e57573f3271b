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

Every pass is feature-major, with each bias folded into its layer's
product.  A layer is read as one augmented block [A_i | c_i] of shape
(d_{i+1}, d_i + 1), and its input as a (d_i + 1, rows) array whose last
row is ones, so that one product [A_i | c_i] @ H_{i-1} is the
pre-activation, bias included, and one in-place ReLU on its rows [:-1]
gives the next layer's input, whose ones row stays in place.  The ones
row comes last, so the bias is the last term of each BLAS dot product,
which at 3000 rows gives the bytes of a product followed by a bias add
(and at 500; at 128 rows OpenBLAS's kernels round differently).
Row-major, the ones would be a last column, and each layer's product
and ReLU would write the strided view of every row but its last entry:
that layout measured slower than a product and a bias add, where
feature-major rows [:-1] are one contiguous slice that BLAS and the ReLU
write in one sweep.  Reverse mode forms each gradient block
as one product, [dW_i | db_i]^T = H_{i-1} @ delta_i^T, the bias gradient
being the ones row's share.  A weight-sharing layer routes the augmented
block as one weight matrix, its Q permutations extended by the ones
column mapped to itself (`WsnnArchitecture.q_blocks`), so weights and
biases take one routing through `replica_sum` and `replica_fold`.
`forward` and `backward` keep (B, d) inputs and outputs, the outputs as
transposed views of fresh (d, B) arrays; `value_and_grads`, every
training step's pass, is feature-major in its input and its head.

Blocks are column-major: the memory of [W_i | b_i] is the C-ordered
(d_i + 1, d_{i+1}) [W_i | b_i]^T, so b_i is one contiguous row of it and
a gradient block is written by its product in place.  BLAS then gets
each block as a transposed operand, whose kernels round every output
column alike whatever the row count; as a no-transpose operand, a
C-ordered block had OpenBLAS round the last few columns of some row
counts differently, so a row's score would depend on the batch it came
in.  `WsnnParams` is these blocks alone; its `weights` and `biases` are
read-only tuples of their column views W_i = block[:, :-1] and
b_i = block[:, -1].  A pass reads the blocks as they are, and separate
arrays become parameters only as a copy into fresh blocks
(`WsnnParams.of`).  Training's float64 master and float32 copy are
blocks viewing two flat buffers (`packed`, `diffusion.AdamState`); every
cast copy (`WsnnParams.astype`, what a sampling score evaluates) and the
gradients of `value_and_grads` are fresh blocks.

`value_and_grads` runs the network once per call: the forward pass keeps
only each layer's post-ReLU activations, and reverse mode takes its ReLU
masks from them (relu(z) > 0 exactly where z > 0) instead of running the
forward pass again.  It returns the value and the parameter gradients,
stopping at the first layer's: only `backward` forms the input gradient.

A `Workspace` holds the per-layer arrays a pass writes into: the hidden
activations, each (width + 1, rows) with its ones row, and for reverse
mode each hidden layer's delta and bool ReLU mask.  It also holds the
(d_1 + 1, rows) input buffer with its ones row, whose (rows, d_1)
transposed view `inputs` hands out: a caller that builds its input from
parts (a score network's x_t and t) writes them there and hands the view
to the pass, which then reads the buffer in place; any other input is
copied into it, transposed (`Workspace.load`).  A loop that evaluates the
network step after step (training, sampling) owns one workspace and
hands it to every `forward` or `value_and_grads` call, so no step
allocates or page-faults them afresh; the arrays are reallocated only
when the row count changes, and the input and backward-only ones only on
first use.  A call without a workspace makes a throwaway one that dies
with the call, so a one-off evaluation keeps nothing alive.  The workspace never holds a
result: the network output and every gradient are fresh arrays the
caller owns, so a kept output is not overwritten by the next call.
Results are bit-identical with and without a reused workspace.

A pass runs in the dtype of the parameters: its input is cast to it
(`value_and_grads` takes it so) and the workspace's arrays are of it.
Training passes are float32, on the float32 copy `diffusion.AdamState`
keeps of its float64 master weights, in a float32 workspace the training
loop owns; a score built for sampling evaluates a float32 copy of its
parameters (`WsnnParams.astype`) in a float32 workspace of its own.
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
    # per hidden layer: its Q permutations extended to the augmented block
    # [W_i | b_i], the ones column d_i mapped to itself
    q_blocks: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "q_blocks", tuple(
            tuple(Permutation(np.append(q.idx, widths[i])) for q in qs)
            for i, qs in enumerate(self.q_perms)))
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


def mlp(widths):
    """Plain MLP special case: one identity replica per hidden layer."""
    widths = tuple(int(w) for w in widths)
    n_hidden = len(widths) - 2
    q = tuple((Permutation.identity(widths[i]),) for i in range(n_hidden))
    r = tuple((Permutation.identity(widths[i + 1]),) for i in range(n_hidden))
    return WsnnArchitecture(widths, (1,) * n_hidden, q, r)


def _block(shape, dtype):
    """A fresh column-major array of this shape and dtype."""
    return np.empty(shape[::-1], dtype).T


@dataclass
class WsnnParams:
    """Per layer the column-major (d_{i+1}, d_i + 1) block [W_i | b_i]
    (see the module docstring); W_i and b_i are its column views."""

    blocks: list

    @property
    def weights(self):
        """Per layer W_i = block[:, :-1], of shape (d_{i+1}, d_i)."""
        return tuple(P[:, :-1] for P in self.blocks)

    @property
    def biases(self):
        """Per layer b_i = block[:, -1], of shape (d_{i+1},)."""
        return tuple(P[:, -1] for P in self.blocks)

    @classmethod
    def of(cls, weights, biases):
        """Fresh blocks holding copies of W_i and b_i, of W_1's dtype."""
        if not weights or len(weights) != len(biases):
            raise DimensionMismatch(f"{len(weights)} weight matrices and "
                                    f"{len(biases)} bias vectors")
        dtype = np.asarray(weights[0]).dtype
        blocks = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            if np.ndim(w) != 2 or np.shape(b) != np.shape(w)[:1]:
                raise DimensionMismatch(f"W_{i + 1} of shape {np.shape(w)} and "
                                        f"b_{i + 1} of shape {np.shape(b)}")
            blocks.append(_block((len(b), np.shape(w)[1] + 1), dtype))
            blocks[-1][:, :-1], blocks[-1][:, -1] = w, b
        return cls(blocks)

    def copy(self):
        return self.astype(self.blocks[0].dtype)

    def astype(self, dtype):
        """Fresh blocks holding these cast to dtype."""
        out = WsnnParams([_block(P.shape, dtype) for P in self.blocks])
        assign(out, self)
        return out


def packed(arch, dtype):
    """(flat, params): a fresh flat array of dtype, and WsnnParams whose
    blocks view it, one per layer of arch in layer order."""
    shapes = [arch.layer_shape(i) for i in range(arch.depth)]
    flat = np.empty(sum(dout * (din + 1) for dout, din in shapes), dtype)
    blocks, start = [], 0
    for dout, din in shapes:
        blocks.append(flat[start:start + dout * (din + 1)].reshape(din + 1, dout).T)
        start += dout * (din + 1)
    return flat, WsnnParams(blocks)


def assign(dst, src):
    """Copy the blocks of src into those of dst, cast to their dtype."""
    for d, s in zip(dst.blocks, src.blocks):
        np.copyto(d, s)


def init_params(arch, rng):
    """He-style fan-in initialisation, deterministic per rng stream."""
    blocks = []
    for i in range(arch.depth):
        dout, din = arch.layer_shape(i)
        blocks.append(_block((dout, din + 1), np.float64))
        blocks[-1][:, :-1] = math.sqrt(2.0 / din) * rng.normal_matrix(dout, din)
        blocks[-1][:, -1] = 0.0
    params = WsnnParams(blocks)
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
    """The dtype a pass on params runs in, once their blocks fit arch."""
    if len(params.blocks) != arch.depth:
        raise DimensionMismatch("params depth does not match architecture")
    for i, P in enumerate(params.blocks):
        dout, din = arch.layer_shape(i)
        if P.shape != (dout, din + 1):
            raise DimensionMismatch(f"[W_{i + 1} | b_{i + 1}] shape {P.shape} "
                                    f"!= {(dout, din + 1)}")
    return params.blocks[0].dtype


def replica_sum(W, q_perms, r_perms):
    """The dense A = sum_j R^(j) W Q^(j) of one layer's shared block W.

    Replica j routes input coordinate q.idx[d] into weight column d and
    weight row k onto output coordinate r.idx[k], so W[k, d] lands on
    A[r.idx[k], q.idx[d]].  The replicas are added in order onto zeros, so
    an entry that every replica leaves at -0.0 comes out +0.0;
    `replica_fold` is the exact adjoint.  A pass routes the augmented
    block [W | b] as W, through Q permutations that map its ones column
    to itself (`WsnnArchitecture.q_blocks`), so that the last column of A
    is the dense bias sum_j R^(j) b."""
    A = np.zeros_like(W)
    for q, r in zip(q_perms, r_perms):
        # exact: a Permutation has no repeated index, so no entry is hit twice
        A[np.ix_(r.idx, q.idx)] += W
    return A


def replica_fold(dA, q_perms, r_perms):
    """The gradient on the shared W from the gradient on the dense A:
    each replica reads dA where `replica_sum` put its copy."""
    dW = np.zeros_like(dA)
    for q, r in zip(q_perms, r_perms):
        dW += dA[np.ix_(r.idx, q.idx)]
    return dW


def _with_ones(width, rows, dtype):
    """A (width + 1, rows) array whose last row is ones."""
    a = np.empty((width + 1, rows), dtype)
    a[-1] = 1.0
    return a


class Workspace:
    """The feature-major arrays one pass writes per hidden layer, and the
    network input buffer, reused by every call that is handed this
    workspace; see the module docstring.  Each activation and the input
    are (width + 1, rows) with a last row of ones, which a pass never
    writes.  They are of `dtype`, the dtype of the parameters of every
    pass run here."""

    def __init__(self, arch, dtype=np.float64):
        self.input_dim = arch.input_dim
        self.widths = arch.widths[1:-1]
        self.dtype = np.dtype(dtype)
        self.rows = None
        self.input = self.input_rows = self.acts = self.deltas = self.masks = None

    def _fit(self, rows):
        if rows != self.rows:
            self.rows = rows
            self.acts = [_with_ones(w, rows, self.dtype) for w in self.widths]
            self.input = self.input_rows = self.deltas = self.masks = None

    def inputs(self, rows):
        """The (rows, d_1) transposed view of the (d_1 + 1, rows) input
        buffer, the same object for as long as the row count holds: a
        caller assembles the input in it (a score network's x and t side
        by side) and hands it to a pass in this workspace, which then
        reads the buffer in place."""
        self._fit(rows)
        if self.input is None:
            self.input = _with_ones(self.input_dim, rows, self.dtype)
            self.input_rows = self.input[:-1].T
        return self.input_rows

    def load(self, x):
        """The input buffer holding the (rows, d_1) batch x: x itself when
        it is the view `inputs` hands out, else x copied in, transposed."""
        view = self.inputs(x.shape[0])
        if x is not view:
            view[...] = x
        return self.input

    def hidden(self, rows):
        """Post-ReLU activation buffers for a pass over `rows` rows."""
        self._fit(rows)
        return self.acts

    def reverse(self, rows):
        """(deltas, ReLU masks), the (width, rows) per-layer buffers of
        reverse mode over `rows` rows."""
        self._fit(rows)
        if self.deltas is None:
            self.deltas = [np.empty((w, rows), self.dtype) for w in self.widths]
            self.masks = [np.empty((w, rows), dtype=bool) for w in self.widths]
        return self.deltas, self.masks


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
    The output is the (B, d_{L+1}) view of a fresh array; the hidden
    layers go to `workspace`."""
    dtype = _check_params(arch, params)
    a, single = _as_batch(x, arch.input_dim, dtype)
    ws = _workspace(arch, workspace, dtype)
    out = _forward_cache(arch, params, ws.load(a), ws)[0].T
    return out[0] if single else out


def _forward_cache(arch, params, h, ws):
    """(output, dense layers, [input, post-ReLU activations]) of one pass
    over the feature-major (d_1 + 1, B) input h with its ones row, of the
    dtype of params and of ws; the dense layers are `effective_layers`.
    Each hidden layer is one product of its dense block [A_i | c_i] into
    rows [:-1] of its `ws` buffer and one in-place ReLU there; only the
    (d_{L+1}, B) output is a fresh array."""
    layers = effective_layers(arch, params)
    acts = [h]
    for P, z in zip(layers.blocks[:-1], ws.hidden(h.shape[1])):
        pre = np.matmul(P, h, out=z[:-1])
        np.maximum(pre, 0.0, out=pre)
        h = z
        acts.append(h)
    return layers.blocks[-1] @ h, layers, acts


def value_and_grads(arch, params, h, head, workspace=None):
    """One network pass on the feature-major (d_1 + 1, B) input h of the
    dtype of params, then reverse mode through it.  h's last row must be
    ones, which is not checked (`Workspace.load` forms such an input).

    head(out) -> (value, g) turns the (d_{L+1}, B) output into a value and
    its gradient with respect to the output.  Returns (value, WsnnParams
    of parameter gradients) in fresh blocks; the per-layer arrays go to
    `workspace`, where reverse mode stops, leaving the first layer's
    delta.  Each gradient block [dW_i | db_i]^T = H_{i-1} @ delta_i^T is
    one product of the layer's input, ones row included, and its delta.
    Shared-weight gradients accumulate over all replicas of a layer; the
    ReLU derivative at exactly 0 is taken as 0.  Misfit params, input
    height or workspace raise DimensionMismatch, and an input or workspace
    of another dtype PreconditionViolated."""
    dtype = _check_params(arch, params)
    shape = np.shape(h)
    if len(shape) != 2 or shape[0] != arch.input_dim + 1:
        raise DimensionMismatch(f"input of shape {shape} is not "
                                f"(d_1 + 1, rows) = ({arch.input_dim + 1}, rows)")
    if h.dtype != dtype:
        raise PreconditionViolated(f"{h.dtype} input for a {dtype} pass")
    ws = _workspace(arch, workspace, dtype)
    out, layers, acts = _forward_cache(arch, params, h, ws)
    dense = layers.blocks
    value, g = head(out)
    if np.shape(g) != out.shape:
        raise DimensionMismatch(f"head gradient of shape {np.shape(g)} != output "
                                f"shape {out.shape}")
    g = np.ascontiguousarray(g)

    deltas, masks = ws.reverse(h.shape[1])
    grads = WsnnParams([_block(P.shape, out.dtype) for P in dense])
    np.matmul(acts[-1], g.T, out=grads.blocks[-1].T)
    delta = np.matmul(dense[-1][:, :-1].T, g, out=deltas[-1])
    for i in range(arch.depth - 2, -1, -1):
        delta *= np.greater(acts[i + 1][:-1], 0.0, out=masks[i])
        if arch.plain[i]:
            np.matmul(acts[i], delta.T, out=grads.blocks[i].T)
        else:
            grads.blocks[i][...] = replica_fold((acts[i] @ delta.T).T,
                                                arch.q_blocks[i], arch.r_perms[i])
        if i:
            delta = np.matmul(dense[i][:, :-1].T, delta, out=deltas[i - 1])
    return value, apply_masks(grads, arch)


def backward(arch, params, x, grad_output):
    """Reverse-mode gradients of sum(grad_output * forward(x)).

    Returns (WsnnParams of gradients, gradient w.r.t. x) of
    `value_and_grads` on x loaded into a fresh workspace.  The input
    gradient is the first dense layer, transposed, times the first
    layer's delta, which that pass leaves in its workspace.
    """
    ws = Workspace(arch, _check_params(arch, params))
    a, single = _as_batch(x, arch.input_dim, ws.dtype)
    g, _ = _as_batch(grad_output, arch.output_dim, ws.dtype)
    _, grads = value_and_grads(arch, params, ws.load(a), lambda out: (None, g.T), ws)
    dx = (effective_layers(arch, params).blocks[0][:, :-1].T @ ws.deltas[0]).T
    return grads, (dx[0] if single else dx)


def effective_layers(arch, params):
    """All layers as plain affine maps: WsnnParams of the dense blocks
    [A_i | c_i].  A plain hidden layer and the output layer are their own
    block [W_i | b_i], the very array of params; every other hidden layer
    is the replica sum of its shared block, column-major like it."""
    dense = list(params.blocks)
    for i, plain in enumerate(arch.plain):
        if not plain:
            dense[i] = replica_sum(dense[i], arch.q_blocks[i], arch.r_perms[i])
    return WsnnParams(dense)


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
        return replica_sum(self.place_filter(filter_vec), self.q_perms, self.r_perms)


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

