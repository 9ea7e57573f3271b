"""The benchmark's workloads: a seeded config, the entry point the CLI calls,
the output checks, and the model-quality figures.

Step counts are cut from the CLI defaults so that one entry call takes a few
seconds and a run can report the median of several calls; each workload
keeps the share of time its layers take at the defaults (see `why`).
"""

import math
from dataclasses import dataclass

from diffden import bench, densities
from diffden.numerics import Rng

# Monte Carlo size and stream of the case-3 reference entropy; fixed so the
# reference, and with it bpd_excess, is a function of the workload seed only.
REFERENCE_MC = 200_000
REFERENCE_SEED = 20250103

LEARNED = ("diffusion", "vanilla-sm")

# A cell whose BPD lies further than this from the entropy of p0, in
# bits/dim, is not a density model of p0: a sampler that collapses or
# scatters its samples lands outside.  Learned cells of these workloads sit
# within 0.5 of it.
BPD_BAND = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str      # the bench function `diffden run-case` / `score-mse` calls
    settings: dict  # ExperimentConfig fields; the seed comes from the run
    why: str        # one line, copied into BENCHMARK.json
    skips: str

    def config(self, seed):
        return bench.ExperimentConfig(seed=seed, **self.settings)


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk", "run_case",
        dict(case=1, grid_side=3, methods=("diffusion", "kde-g", "kde-u"),
             train_sizes=(100, 500, 2000), n_eval=3000, repetitions=1,
             steps=400, em_steps=100),
        why=("ROADMAP desk run (case 1, K=3): reverse-SDE sampling at batch 3000"
             " dominates, then DSM training; skips analytic scores, solve_spd,"
             " vanilla SM and Langevin"),
        skips="diffusion.score_t_batch, densities.score_t, densities.solve_spd, "
              "diffusion.score_mse, sampler.train_vanilla_sm, "
              "sampler.langevin_sample, wsnn at batch 4096"),
    Workload(
        "mrf-score", "score_mse_study",
        dict(case=2, grid_side=5, methods=("diffusion",), train_sizes=(2000,),
             repetitions=1, steps=400),
        why=("score-MSE study on case 2 (K=5): per-sample analytic MRF scores"
             " with solve_spd, then DSM training; no sampler, no KDE, wsnn at"
             " batch 128 and 4096 only"),
        skips="sampler.*, kde.*, densities.bpd, wsnn at batch 3000"),
    Workload(
        "vanilla-sm", "run_case",
        dict(case=3, grid_side=3, mixture_size=3, methods=("vanilla-sm",),
             train_sizes=(2000,), n_eval=3000, repetitions=1, steps=150,
             langevin_steps=100, langevin_step=0.05),
        why=("case-3 mixture, vanilla SM: stencil training (wsnn backward at"
             " batch 128) then Langevin at 3000; no workload calls kde.density"
             " or quadrature.pt_quadrature"),
        skips="diffusion.train, sampler.reverse_sde_sample, "
              "diffusion.score_t_batch, densities.solve_spd, "
              "kde.*, wsnn at batch 4096"),
)}

def reference_entropy(config):
    """Entropy of p0 in bits/dim: closed forms for cases 1 and 2, a fixed-seed
    Monte Carlo estimate for the case-3 mixture."""
    density = bench.make_density(config)
    if config.case == 1:
        return densities.iso_gaussian_bpd(density.dim)
    if config.case == 2:
        return densities.grid_mrf_bpd(density)
    return densities.reference_bpd(density, REFERENCE_MC,
                                   Rng(REFERENCE_SEED)).value


def cells(workload, result, entropy):
    """(key, deterministic value, passed its check) per cell of one call."""
    out = []
    if workload.entry == "run_case":
        for row in result.rows:
            ok = (row.status == "ok" and math.isfinite(row.bpd)
                  and abs(row.bpd - entropy) <= BPD_BAND)
            out.append(((row.method, row.n, row.repetition), row.bpd, ok))
    else:
        # acceptance criterion 4: training at least halves the score-MSE
        for n, rep, init, trained in result:
            ok = math.isfinite(init) and math.isfinite(trained) and trained < 0.5 * init
            out.append(((n, rep), (init, trained), ok))
    return out


def quality(workload, call_cells, entropy):
    """Model-quality figure of one call, deterministic per seed: bpd_excess
    (mean BPD of the learned-model cells minus the entropy of p0, bits/dim)
    on run_case workloads, score_mse_ratio (mean trained / initial
    score-MSE) on the score-MSE study.  Returns (name, unit, value)."""
    if workload.entry == "run_case":
        excess = [bpd - entropy for (method, _, _), bpd, _ in call_cells
                  if method in LEARNED]
        return "bpd_excess", "bit/dim", sum(excess) / len(excess)
    ratios = [trained / init for _, (init, trained), _ in call_cells]
    return "score_mse_ratio", "1", sum(ratios) / len(ratios)
