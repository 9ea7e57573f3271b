"""Every file the package reads or writes, byte for byte as README "File
formats" documents them.

Text formats: the dataset CSV and its metadata JSON sidecar, the BPD
report CSV (`BpdRow`, `BpdReport`, and the header and row lines that
`run_case` appends as its cells finish), the loss-trace CSV and the
score-MSE CSV.  Binary formats: the network checkpoint and the sample
block, read through `read_exact` and `expect_eof`.  A reader raises
CorruptFile naming the path (and the line, in a text format) for a file
that is truncated, over-long, malformed, not UTF-8 text or holds a value
it rejects; a dataset CSV without rows is EmptyDataset.  Only the SVG
plots are written elsewhere (`bench.emit_plots`).
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptFile, EmptyDataset, InvalidSize
from .wsnn import Permutation, WsnnArchitecture, WsnnParams, _check_params


def read_text(path):
    """Whole text of a UTF-8 file, newlines translated as in text mode; a
    file that does not decode is a CorruptFile naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: not UTF-8 text (byte {exc.start})") from None


# --- dataset CSV and metadata JSON ------------------------------------------


def write_csv(path, x):
    """Write the dataset CSV: an x1,..,xD header, then one row per sample in
    round-trip repr form."""
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(x.shape[1])) + "\n")
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path):
    """The (n, D) float64 samples of a dataset CSV."""
    header, *lines = read_text(path).split("\n")
    if not header.startswith("x1"):
        raise CorruptFile(
            f"{path} line 1: dataset CSV must start with an x1,..,xD header")
    width = len(header.split(","))
    rows = []
    for lineno, line in enumerate(lines, 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise CorruptFile(
                f"{path} line {lineno}: {len(cells)} cells, header has {width}")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise CorruptFile(
                f"{path} line {lineno}: non-numeric cell") from None
        if not all(map(math.isfinite, row)):
            raise CorruptFile(f"{path} line {lineno}: non-finite cell")
        rows.append(row)
    if not rows:
        raise EmptyDataset(f"no rows in {path}")
    return np.array(rows)


def write_meta(path, meta):
    """Generator metadata (a density's `meta()`) as a JSON sidecar."""
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- BPD report CSV -----------------------------------------------------------


@dataclass
class BpdRow:
    case: int
    k_or_m: int
    method: str
    n: int
    repetition: int
    bpd: float      # nan never appears; inf allowed with status flag
    runtime_s: float
    status: str = "ok"


_CSV_HEADER = "case,k_or_m,method,n,repetition,bpd,runtime_s,status"


def _csv_line(r, include_runtime=True):
    runtime = [repr(r.runtime_s)] if include_runtime else []
    return ",".join([str(r.case), str(r.k_or_m), r.method, str(r.n),
                     str(r.repetition), repr(r.bpd), *runtime, r.status])


@dataclass
class BpdReport:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def csv_text(self, include_runtime=True):
        lines = [_CSV_HEADER if include_runtime
                 else _CSV_HEADER.replace(",runtime_s", "")]
        lines += [_csv_line(r, include_runtime) for r in self.rows]
        return "\n".join(lines) + "\n"

    def deterministic_csv_bytes(self):
        """CSV bytes with the wall-clock column removed; byte-stable per seed."""
        return self.csv_text(include_runtime=False).encode()

    @staticmethod
    def from_csv(path):
        report = BpdReport()
        header, *lines = read_text(path).split("\n")
        if header.strip() != _CSV_HEADER:
            raise CorruptFile(f"{path} line 1: expected header {_CSV_HEADER}")
        for lineno, line in enumerate(lines, 2):
            if not line.strip():
                continue
            cells = line.strip().split(",")
            if len(cells) != 8:
                raise CorruptFile(f"{path} line {lineno}: {len(cells)} cells, "
                                  f"the header has 8")
            c, k, method, n, rep, bpd, rt, status = cells
            try:
                row = BpdRow(int(c), int(k), method, int(n), int(rep),
                             float(bpd), float(rt), status)
            except ValueError:
                raise CorruptFile(
                    f"{path} line {lineno}: non-numeric cell") from None
            if math.isnan(row.bpd):
                raise CorruptFile(f"{path} line {lineno}: bpd is NaN")
            report.rows.append(row)
        return report


def start_report_csv(path):
    """A report CSV holding only its header, for `append_report_row`."""
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")


def append_report_row(path, row):
    """Append one BpdRow as its line of the report CSV."""
    with open(path, "a") as fh:
        fh.write(_csv_line(row) + "\n")


# --- loss-trace and score-MSE CSVs -------------------------------------------


def write_trace_csv(path, trace):
    """The `diffusion.TraceRow`s of a fit, one line per trace epoch, with
    an empty score_mse column (fit records no score-MSE estimate)."""
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss,score_mse,wall_time_s\n")
        for row in trace:
            fh.write(f"{row.epoch},{row.mean_loss!r},,{row.wall_time_s!r}\n")


def write_score_mse_csv(path, rows):
    """The (n, repetition, init, trained) rows of `bench.score_mse_study`."""
    with open(path, "w") as fh:
        fh.write("n,repetition,score_mse_init,score_mse_trained\n")
        for n, rep, init, trained in rows:
            fh.write(f"{n},{rep},{init!r},{trained!r}\n")


# --- binary files -------------------------------------------------------------


def read_exact(fh, dtype, count):
    """Read exactly `count` items of `dtype` from a binary file or raise
    CorruptFile; the size is checked before anything is allocated."""
    count = int(count)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count < 0 or count * np.dtype(dtype).itemsize > left:
        raise CorruptFile(f"{fh.name}: wanted {count} x {np.dtype(dtype).name}, "
                          f"{left} bytes left")
    return np.fromfile(fh, dtype, count)


def expect_eof(fh):
    if fh.read(1):
        raise CorruptFile(f"{fh.name}: trailing bytes")


_MAGIC = b"DDWSNN1\n"


def save_checkpoint(path, arch, params):
    """Binary container: header (L, d, m, s, M, perm tables, masks) then
    row-major W_i and b_i in layer order.  Field order is documented in the
    README."""
    _check_params(arch, params)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        np.array([arch.depth], dtype=np.int64).tofile(fh)
        np.array(arch.widths, dtype=np.int64).tofile(fh)
        np.array(arch.replicas, dtype=np.int64).tofile(fh)
        np.array([arch.sparsity], dtype=np.int64).tofile(fh)
        np.array([arch.weight_bound], dtype=np.float64).tofile(fh)
        for i in range(arch.depth - 1):
            for q in arch.q_perms[i]:
                q.idx.astype(np.int64).tofile(fh)
            for r in arch.r_perms[i]:
                r.idx.astype(np.int64).tofile(fh)
        has_masks = arch.weight_masks is not None
        np.array([1 if has_masks else 0], dtype=np.int64).tofile(fh)
        if has_masks:
            # a None entry (dense layer) is stored as an all-ones mask
            for i, m in enumerate(arch.weight_masks):
                m = np.ones(arch.layer_shape(i)) if m is None else m
                np.ascontiguousarray(m, dtype=np.uint8).tofile(fh)
        for w, b in zip(params.weights, params.biases):
            np.ascontiguousarray(w, dtype=np.float64).tofile(fh)
            np.ascontiguousarray(b, dtype=np.float64).tofile(fh)


def load_checkpoint(path):
    """(arch, params) from a checkpoint; a file that is truncated, over-long,
    describes an invalid network or holds a non-finite weight or bias is a
    CorruptFile naming the path (and the layer, for a non-finite value)."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CorruptFile(f"{path}: not a network checkpoint file")
        depth = int(read_exact(fh, np.int64, 1)[0])
        if depth < 2:
            raise CorruptFile(f"{path}: checkpoint depth {depth} < 2")
        widths = tuple(read_exact(fh, np.int64, depth + 1).tolist())
        if min(widths) < 1:  # before the tables: an empty table reads no bytes
            raise CorruptFile(f"{path}: invalid network: widths {widths} below 1")
        replicas = tuple(read_exact(fh, np.int64, depth - 1).tolist())
        sparsity = int(read_exact(fh, np.int64, 1)[0])
        bound = float(read_exact(fh, np.float64, 1)[0])
        # per hidden layer its m_i Q tables, then its m_i R tables
        tables = [[read_exact(fh, np.int64, widths[i + k]) for _ in range(replicas[i])]
                  for i in range(depth - 1) for k in (0, 1)]
        masks = None
        if int(read_exact(fh, np.int64, 1)[0]):
            masks = tuple(
                read_exact(fh, np.uint8, widths[i + 1] * widths[i])
                .reshape(widths[i + 1], widths[i]).astype(np.float64)
                for i in range(depth))
        try:
            perms = [tuple(map(Permutation, layer)) for layer in tables]
            arch = WsnnArchitecture(widths, replicas, tuple(perms[0::2]),
                                    tuple(perms[1::2]), sparsity, bound, masks)
        except InvalidSize as exc:
            raise CorruptFile(f"{path}: invalid network: {exc}") from None
        weights, biases = [], []
        for i in range(depth):
            dout, din = arch.layer_shape(i)
            weights.append(read_exact(fh, np.float64, dout * din).reshape(dout, din))
            biases.append(read_exact(fh, np.float64, dout))
            if not (np.all(np.isfinite(weights[-1])) and np.all(np.isfinite(biases[-1]))):
                raise CorruptFile(f"{path}: layer {i + 1} has a non-finite "
                                  f"weight or bias")
        expect_eof(fh)
    return arch, WsnnParams.of(weights, biases)


def write_samples_binary(path, x):
    """Sample block: int64 n, int64 D, then float64 samples row-major.  Any
    float is kept, NaN and inf included."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with open(path, "wb") as fh:
        np.array(x.shape, dtype=np.int64).tofile(fh)
        np.ascontiguousarray(x).tofile(fh)


def read_samples_binary(path):
    with open(path, "rb") as fh:
        n, dim = read_exact(fh, np.int64, 2).tolist()
        if n < 0 or dim < 0:
            raise CorruptFile(f"{path}: negative sample block shape ({n}, {dim})")
        x = read_exact(fh, np.float64, n * dim).reshape(n, dim)
        expect_eof(fh)
    return x
