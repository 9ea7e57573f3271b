"""Experiment runner: data generation, model fitting, sampling, and the
bits-per-dimension comparison across methods, with CSV and SVG outputs.

Cells of the benchmark grid (train size, method, repetition) are fully
determined by the config seed; wall-clock runtimes are recorded per row but
excluded from the determinism guarantee.
"""

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import densities, kde, sampler, wsnn
from .diffusion import DiffusionSchedule, TrainConfig, network_score, score_mse, train
from .errors import BadConfig, CorruptFile, DiffdenError, EmptyReport, read_text
from .numerics import Rng

METHODS = ("diffusion", "kde-g", "kde-u", "vanilla-sm", "analytic")


@dataclass(frozen=True)
class ExperimentConfig:
    case: int = 1
    grid_side: int = 3           # K; data dimension is K^2
    mixture_size: int = 3        # M (case 3 only)
    train_sizes: tuple = (100, 500, 2000)
    n_eval: int = 3000
    methods: tuple = ("diffusion", "kde-g", "kde-u")
    seed: int = 0
    repetitions: int = 3
    steps: int = 2000
    batch_size: int = 128
    learning_rate: float = 1e-3
    t_min: float = 1e-3
    t_max: float = 3.0
    em_steps: int = 500
    hidden_widths: tuple = (64, 64)
    langevin_step: float = 0.01
    langevin_steps: int = 1000
    mrf_diag: float = 1.0
    mrf_coupling: float = -0.2

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise BadConfig(f"{f.name} must be finite")
        if self.case not in (1, 2, 3):
            raise BadConfig("case must be 1, 2, or 3")
        if self.grid_side < 2:
            raise BadConfig("grid_side must be >= 2")
        if self.mixture_size < 1 or self.n_eval < 1:
            raise BadConfig("mixture_size and n_eval must be >= 1")
        if not self.train_sizes or min(self.train_sizes) < 1:
            raise BadConfig("need at least one train size, each >= 1")
        if not self.methods:
            raise BadConfig("need at least one method")
        if self.repetitions < 1:
            raise BadConfig("repetitions must be >= 1")
        if not 0 < self.t_min < self.t_max:
            raise BadConfig("need 0 < T_min < T_max")
        if self.em_steps < 1 or self.langevin_steps < 1:
            raise BadConfig("em_steps and langevin_steps must be >= 1")
        if not self.langevin_step > 0:
            raise BadConfig("langevin_step must be > 0")
        if not self.hidden_widths or min(self.hidden_widths) < 1:
            raise BadConfig("need at least one hidden width, each >= 1")
        self.train_config(self.seed)  # TrainConfig checks steps, batch and lr
        for m in self.methods:
            if m not in METHODS:
                raise BadConfig(f"unknown method {m!r}")

    @property
    def dim(self):
        return self.grid_side ** 2

    @property
    def k_or_m(self):
        return self.mixture_size if self.case == 3 else self.grid_side

    def schedule(self):
        return DiffusionSchedule(t_min=self.t_min, t_max=self.t_max)

    def train_config(self, seed):
        return TrainConfig(batch_size=self.batch_size,
                           learning_rate=self.learning_rate, steps=self.steps,
                           seed=seed)


def make_density(config, rng=None):
    rng = rng if rng is not None else Rng(config.seed).child(7)
    if config.case == 1:
        return densities.IsoGaussian(config.dim)
    if config.case == 2:
        return densities.GridMrfGaussian(config.grid_side, config.mrf_diag,
                                         config.mrf_coupling)
    return densities.GaussMixture(config.dim, config.mixture_size, rng)


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


@dataclass
class BpdReport:
    rows: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def csv_text(self, include_runtime=True):
        lines = [_CSV_HEADER if include_runtime
                 else _CSV_HEADER.replace(",runtime_s", "")]
        for r in self.rows:
            bpd = repr(r.bpd)
            cells = [str(r.case), str(r.k_or_m), r.method, str(r.n),
                     str(r.repetition), bpd]
            if include_runtime:
                cells.append(repr(r.runtime_s))
            cells.append(r.status)
            lines.append(",".join(cells))
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
            report.rows.append(row)
        return report


def _score_net_arch(dim, hidden_widths):
    return wsnn.mlp((dim + 1,) + tuple(hidden_widths) + (dim,))


def _vanilla_arch(dim, hidden_widths):
    return wsnn.mlp((dim,) + tuple(hidden_widths) + (dim,))


def _generate_for_method(config, density, method, data, cell_rng, cell_seed):
    """Fit the method on `data` and return n_eval generated samples."""
    schedule = config.schedule()
    if method in ("kde-g", "kde-u"):
        kernel = "gaussian" if method == "kde-g" else "uniform"
        model = kde.fit(data, kernel)
        return kde.sample(model, config.n_eval, cell_rng.child(1)).x
    if method == "analytic":
        score = sampler.analytic_score(density, schedule)
        cfg = sampler.SamplerConfig(config.em_steps, config.n_eval)
        return sampler.reverse_sde_sample(score, schedule, cfg, density.dim,
                                          cell_rng.child(1))
    if method == "diffusion":
        arch = _score_net_arch(density.dim, config.hidden_widths)
        params = wsnn.init_params(arch, cell_rng.child(2))
        params, _ = train(data, arch, params, schedule,
                          config.train_config(cell_seed))
        score = network_score(arch, params)
        cfg = sampler.SamplerConfig(config.em_steps, config.n_eval)
        return sampler.reverse_sde_sample(score, schedule, cfg, density.dim,
                                          cell_rng.child(1))
    if method == "vanilla-sm":
        arch = _vanilla_arch(density.dim, config.hidden_widths)
        params = wsnn.init_params(arch, cell_rng.child(2))
        params, _ = sampler.train_vanilla_sm(data, arch, params,
                                             config.train_config(cell_seed))
        score = sampler.learned_score_time_free(arch, params)
        return sampler.langevin_sample(score, config.langevin_step,
                                       config.langevin_steps, config.n_eval,
                                       density.dim, cell_rng.child(1))
    raise ValueError(f"unknown method {method!r}")


def run_case(config, flush_path=None):
    """Benchmark every (n, method, repetition) cell of the config.

    Per-cell failures become typed error rows (status column) instead of
    aborting the grid; rows are appended to flush_path as they finish when
    given.
    """
    root = Rng(config.seed)
    density = make_density(config, root.child(7))
    report = BpdReport()
    if flush_path:
        with open(flush_path, "w") as fh:
            fh.write(_CSV_HEADER + "\n")
    cell_index = 0
    for n in config.train_sizes:
        for rep in range(config.repetitions):
            data_rng = root.child(config.case, config.k_or_m, n, rep, 0)
            data = density.sample(n, data_rng)
            for method in config.methods:
                mid = METHODS.index(method)
                cell_rng = root.child(config.case, config.k_or_m, n, rep, 1 + mid)
                cell_seed = config.seed * 1000003 + cell_index
                start = time.perf_counter()
                try:
                    samples = _generate_for_method(config, density, method,
                                                   data, cell_rng, cell_seed)
                    value = densities.bpd(density, samples)
                    status = "ok" if math.isfinite(value) else "infinite_bpd"
                    row = BpdRow(config.case, config.k_or_m, method, n, rep,
                                 value, time.perf_counter() - start, status)
                except DiffdenError as exc:
                    row = BpdRow(config.case, config.k_or_m, method, n, rep,
                                 math.inf, time.perf_counter() - start,
                                 type(exc).__name__)
                report.rows.append(row)
                if flush_path:
                    with open(flush_path, "a") as fh:
                        fh.write(report.csv_text().splitlines()[-1] + "\n")
                cell_index += 1
    return report


def score_mse_study(config, n_mc=4096):
    """Rows (n, repetition, score_mse_init, score_mse_trained) for the
    diffusion method on a case with an analytic score."""
    root = Rng(config.seed)
    density = make_density(config, root.child(7))
    schedule = config.schedule()
    rows = []
    cell_index = 0
    for n in config.train_sizes:
        for rep in range(config.repetitions):
            data = density.sample(n, root.child(config.case, config.k_or_m,
                                                n, rep, 0))
            cell_rng = root.child(config.case, config.k_or_m, n, rep, 99)
            arch = _score_net_arch(density.dim, config.hidden_widths)
            params0 = wsnn.init_params(arch, cell_rng.child(2))
            init = score_mse(network_score(arch, params0), density, schedule,
                             n_mc, cell_rng.child(3))
            tc = config.train_config(config.seed * 1000003 + cell_index)
            params, _ = train(data, arch, params0, schedule, tc)
            trained = score_mse(network_score(arch, params), density, schedule,
                                n_mc, cell_rng.child(3))
            rows.append((n, rep, init.value, trained.value))
            cell_index += 1
    return rows


def write_score_mse_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("n,repetition,score_mse_init,score_mse_trained\n")
        for n, rep, init, trained in rows:
            fh.write(f"{n},{rep},{init!r},{trained!r}\n")


# --- SVG emission ------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910")


def _svg_plot(title, series, width=640, height=440):
    """Self-contained SVG: BPD vs n with a log-scaled n axis, one polyline
    per method.  `series` maps method -> list of (n, bpd)."""
    left, right, top, bottom = 70, 20, 40, 50
    xs = sorted({n for pts in series.values() for n, _ in pts})
    ys = [b for pts in series.values() for _, b in pts if math.isfinite(b)]
    if not xs or not ys:
        raise EmptyReport("nothing to plot")
    lo_x, hi_x = math.log(min(xs)), math.log(max(xs))
    if hi_x == lo_x:
        lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
    lo_y, hi_y = min(ys), max(ys)
    pad = 0.05 * (hi_y - lo_y) or 0.5
    lo_y, hi_y = lo_y - pad, hi_y + pad

    def px(n):
        return left + (math.log(n) - lo_x) / (hi_x - lo_x) * (width - left - right)

    def py(v):
        return top + (hi_y - v) / (hi_y - lo_y) * (height - top - bottom)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}" '
           f'font-family="sans-serif" font-size="12">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
           f'font-size="14">{title}</text>',
           f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
           f'y2="{height - bottom}" stroke="black"/>',
           f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
           f'stroke="black"/>']
    for n in xs:
        out.append(f'<line x1="{px(n):.1f}" y1="{height - bottom}" '
                   f'x2="{px(n):.1f}" y2="{height - bottom + 4}" stroke="black"/>')
        out.append(f'<text x="{px(n):.1f}" y="{height - bottom + 18}" '
                   f'text-anchor="middle">{n}</text>')
    for k in range(5):
        v = lo_y + k * (hi_y - lo_y) / 4
        out.append(f'<line x1="{left - 4}" y1="{py(v):.1f}" x2="{left}" '
                   f'y2="{py(v):.1f}" stroke="black"/>')
        out.append(f'<text x="{left - 8}" y="{py(v) + 4:.1f}" '
                   f'text-anchor="end">{v:.2f}</text>')
    out.append(f'<text x="{width / 2:.1f}" y="{height - 12}" '
               f'text-anchor="middle">n (log scale)</text>')
    out.append(f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {height / 2:.1f})">BPD</text>')
    for i, (method, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        finite = [(n, b) for n, b in sorted(pts) if math.isfinite(b)]
        if finite:
            coords = " ".join(f"{px(n):.1f},{py(b):.1f}" for n, b in finite)
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="2"/>')
            for n, b in finite:
                out.append(f'<circle cx="{px(n):.1f}" cy="{py(b):.1f}" r="3" '
                           f'fill="{color}"/>')
        ly = top + 16 * i
        out.append(f'<line x1="{width - right - 120}" y1="{ly}" '
                   f'x2="{width - right - 96}" y2="{ly}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{width - right - 90}" y="{ly + 4}">{method}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plots(report, out_dir):
    """One SVG per (case, K/M) with BPD-vs-n polylines (repetitions averaged),
    plus the raw CSV.  Returns the written paths."""
    import os

    if not report.rows:
        raise EmptyReport("report has no rows")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    csv_path = os.path.join(out_dir, "bpd_report.csv")
    report.to_csv(csv_path)
    written.append(csv_path)
    groups = {}
    for r in report.rows:
        groups.setdefault((r.case, r.k_or_m), []).append(r)
    for (case, km), rows in sorted(groups.items()):
        series = {}
        agg = {}
        for r in rows:
            if r.status in ("ok", "infinite_bpd"):
                agg.setdefault((r.method, r.n), []).append(r.bpd)
        for (method, n), vals in sorted(agg.items()):
            series.setdefault(method, []).append((n, float(np.mean(vals))))
        label = "M" if case == 3 else "K"
        svg = _svg_plot(f"Case {case} ({label}={km}): BPD vs n", series)
        path = os.path.join(out_dir, f"bpd_case{case}_{label.lower()}{km}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        written.append(path)
    return written


# --- experiment settings: config-file keys and CLI flags --------------------


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _strs(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


# config key -> (ExperimentConfig field, value parser, CLI flag or None for
# keys that only a config file sets); file and flag values parse alike
SETTINGS = {
    "case": ("case", int, "--case"),
    "K": ("grid_side", int, "--K"),
    "M": ("mixture_size", int, "--M"),
    "n_list": ("train_sizes", _ints, "--n-list"),
    "n_eval": ("n_eval", int, "--n-eval"),
    "methods": ("methods", _strs, "--methods"),
    "seed": ("seed", int, "--seed"),
    "repetitions": ("repetitions", int, "--repetitions"),
    "steps": ("steps", int, "--steps"),
    "batch": ("batch_size", int, "--batch"),
    "lr": ("learning_rate", float, "--lr"),
    "T_min": ("t_min", float, "--T-min"),
    "T_max": ("t_max", float, "--T-max"),
    "em_steps": ("em_steps", int, "--em-steps"),
    "arch.widths": ("hidden_widths", _ints, "--widths"),
    "langevin_step": ("langevin_step", float, None),
    "langevin_steps": ("langevin_steps", int, None),
    "mrf_diag": ("mrf_diag", float, None),
    "mrf_coupling": ("mrf_coupling", float, None),
}


def parse_setting(key, text, where):
    """Value of one setting from its text; `where` names the source in the
    BadConfig message (a config line or a flag)."""
    try:
        return SETTINGS[key][1](text)
    except ValueError:
        raise BadConfig(f"{where}: cannot parse {text!r} for {key!r}") from None


def parse_config_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfig(f"config line {lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise BadConfig(f"config line {lineno}: unknown key {key!r}")
        values[key] = parse_setting(key, val, f"config line {lineno}")
    return values


def config_from_values(values, base=None):
    cfg = base or ExperimentConfig()
    return replace(cfg, **{SETTINGS[k][0]: v for k, v in values.items()})


def load_config(path, base=None):
    return config_from_values(parse_config_text(read_text(path)), base)
