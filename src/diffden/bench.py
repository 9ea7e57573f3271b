"""Experiment runner: data generation, model fitting, sampling, and the
bits-per-dimension comparison across methods, with CSV and SVG outputs
(the CSVs through `formats`; the SVG plots are rendered and written here).

Cells of the benchmark grid (train size, method, repetition) are fully
determined by the config seed; wall-clock runtimes are recorded per row but
excluded from the determinism guarantee.
"""

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import densities, formats, kde, sampler, wsnn
from .diffusion import DiffusionSchedule, TrainConfig, network_score, score_mse, train
from .errors import BadConfig, DiffdenError, EmptyReport
from .numerics import Rng


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
        if not self.methods or not METHODS.keys() >= set(self.methods):
            raise BadConfig(f"methods must be one or more of {', '.join(METHODS)}")
        if self.repetitions < 1:
            raise BadConfig("repetitions must be >= 1")
        if self.em_steps < 1 or self.langevin_steps < 1:
            raise BadConfig("em_steps and langevin_steps must be >= 1")
        if not self.langevin_step > 0:
            raise BadConfig("langevin_step must be > 0")
        if not self.hidden_widths or min(self.hidden_widths) < 1:
            raise BadConfig("need at least one hidden width, each >= 1")
        self.schedule()  # DiffusionSchedule checks t_min < t_max and bounds t_max
        self.train_config(self.seed)  # TrainConfig checks steps, batch and lr

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


def make_density(config):
    if config.case == 1:
        return densities.IsoGaussian(config.dim)
    if config.case == 2:
        return densities.GridMrfGaussian(config.grid_side, config.mrf_diag,
                                         config.mrf_coupling)
    return densities.GaussMixture(config.dim, config.mixture_size,
                                  Rng(config.seed).child(7))


def fit_dsm(config, data, init_rng, train_seed):
    """The diffusion method's fit: a (D+1)-hidden_widths-D network on the
    (n, D) `data`, weights drawn from init_rng, trained by DSM on the
    training seed.  Returns (arch, initial params, trained params, trace)."""
    arch = wsnn.mlp((data.shape[1] + 1, *config.hidden_widths, data.shape[1]))
    params0 = wsnn.init_params(arch, init_rng)
    params, trace = train(data, arch, params0, config.schedule(),
                          config.train_config(train_seed))
    return arch, params0, params, trace


def reverse_sde(config, score, dim, n, rng):
    """n reverse-SDE samples of `score` on the config's schedule and EM steps."""
    return sampler.reverse_sde_sample(score, config.schedule(),
                                      sampler.SamplerConfig(config.em_steps, n),
                                      dim, rng)


def _fit_diffusion(config, density, data, init_rng, train_seed):
    arch, _, params, _ = fit_dsm(config, data, init_rng, train_seed)
    return network_score(arch, params)


def _fit_vanilla_sm(config, density, data, init_rng, train_seed):
    arch = wsnn.mlp((density.dim, *config.hidden_widths, density.dim))
    params, _ = sampler.train_vanilla_sm(data, arch, wsnn.init_params(arch, init_rng),
                                         config.train_config(train_seed))
    return network_score(arch, params)


def _langevin(config, score, dim, n, rng):
    return sampler.langevin_sample(score, config.langevin_step,
                                   config.langevin_steps, n, dim, rng)


def _kde(kernel):
    return (lambda config, density, data, init_rng, train_seed: kde.fit(data, kernel),
            lambda config, model, dim, n, rng: kde.sample(model, n, rng))


# method -> (fit, sample): fit(config, density, data, init_rng, train_seed)
# returns the model (a score or a KdeModel), sample(config, model, dim, n,
# rng) draws n samples from it.  A run_case cell draws from stream slot 1 +
# the method's position: append, never reorder.
METHODS = {
    "diffusion": (_fit_diffusion, reverse_sde),
    "kde-g": _kde("gaussian"),
    "kde-u": _kde("uniform"),
    "vanilla-sm": (_fit_vanilla_sm, _langevin),
    "analytic": (lambda config, density, *_: sampler.analytic_score(
        density, config.schedule()), reverse_sde),
}


def _cell_rng(config, n, rep, slot):
    """The stream of one cell of the grid: slot 0 draws the training data,
    slot 1 + METHODS position is a run_case cell, slot 99 a score_mse_study
    cell."""
    return Rng(config.seed, (config.case, config.k_or_m, n, rep, slot))


def run_case(config, flush_path=None):
    """Benchmark every (n, method, repetition) cell of the config.

    Per-cell failures become typed error rows (status column) instead of
    aborting the grid; rows are appended to flush_path as they finish when
    given.
    """
    density = make_density(config)
    report = formats.BpdReport()
    if flush_path:
        formats.start_report_csv(flush_path)
    cell_index = 0
    for n in config.train_sizes:
        for rep in range(config.repetitions):
            data = density.sample(n, _cell_rng(config, n, rep, 0))
            for method in config.methods:
                cell_rng = _cell_rng(config, n, rep, 1 + list(METHODS).index(method))
                fit, sample = METHODS[method]
                start = time.perf_counter()
                try:
                    model = fit(config, density, data, cell_rng.child(2),
                                config.seed * 1000003 + cell_index)
                    samples = sample(config, model, density.dim, config.n_eval,
                                     cell_rng.child(1))
                    del model  # a network score's workspace goes before bpd's peak
                    bpd = densities.bpd(density, samples)
                    status = "ok" if math.isfinite(bpd) else "infinite_bpd"
                except DiffdenError as exc:
                    bpd, status = math.inf, type(exc).__name__
                row = formats.BpdRow(config.case, config.k_or_m, method, n, rep,
                                     bpd, time.perf_counter() - start, status)
                report.rows.append(row)
                if flush_path:
                    formats.append_report_row(flush_path, row)
                cell_index += 1
    return report


def score_mse_study(config, n_mc=4096):
    """Rows (n, repetition, score_mse_init, score_mse_trained) for the
    diffusion method on a case with an analytic score: after training, one
    score_mse call estimates both networks on the same points."""
    density = make_density(config)
    schedule = config.schedule()
    rows = []
    cell_index = 0
    for n in config.train_sizes:
        for rep in range(config.repetitions):
            data = density.sample(n, _cell_rng(config, n, rep, 0))
            cell_rng = _cell_rng(config, n, rep, 99)
            arch, params0, params, _ = fit_dsm(config, data, cell_rng.child(2),
                                               config.seed * 1000003 + cell_index)
            init, trained = score_mse(
                (network_score(arch, params0), network_score(arch, params)),
                density, schedule, n_mc, cell_rng.child(3))
            rows.append((n, rep, init.value, trained.value))
            cell_index += 1
    return rows


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
    return config_from_values(parse_config_text(formats.read_text(path)), base)
