"""Command-line experiment runner.

Subcommands: gen-data, train, sample, evaluate, run-case, score-mse, plot.
A flat key=value config file (--config) seeds the experiment settings and
individual flags override it.  Typed errors and unreadable files exit 2 with
the error name on stderr.
"""

import argparse
import sys

from . import bench, densities, formats
from .bench import ExperimentConfig, load_config, make_density
from .diffusion import network_score
from .errors import DiffdenError
from .numerics import Rng


def _experiment_config(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    values = {key: bench.parse_setting(key, getattr(args, key), flag)
              for key, (_, _, flag) in bench.SETTINGS.items()
              if flag and getattr(args, key) is not None}
    return bench.config_from_values(values, cfg)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    for key, (_, _, flag) in bench.SETTINGS.items():
        if flag:
            p.add_argument(flag, dest=key)


def cmd_gen_data(args):
    cfg = _experiment_config(args)
    density = make_density(cfg)
    x = densities.sample(density, args.n, bench._cell_rng(cfg, args.n, 0, 0))
    formats.write_csv(args.out, x)
    if args.meta:
        formats.write_meta(args.meta, density.meta())
    print(f"wrote {x.shape[0]} x {x.shape[1]} samples to {args.out}")
    return 0


def cmd_train(args):
    cfg = _experiment_config(args)
    data = formats.read_csv(args.data)
    arch, _, params, trace = bench.fit_dsm(cfg, data, Rng(cfg.seed).child(2), cfg.seed)
    formats.save_checkpoint(args.out, arch, params)
    if args.trace:
        formats.write_trace_csv(args.trace, trace)
    print(f"trained {cfg.steps} steps; final mean loss {trace[-1].mean_loss:.6f}")
    return 0


def cmd_sample(args):
    cfg = _experiment_config(args)
    arch, params = formats.load_checkpoint(args.checkpoint)
    x = bench.reverse_sde(cfg, network_score(arch, params), arch.output_dim,
                          args.n, Rng(cfg.seed).child(3))
    formats.write_csv(args.out, x)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def cmd_evaluate(args):
    cfg = _experiment_config(args)
    density = make_density(cfg)
    value = densities.bpd(density, formats.read_csv(args.samples))
    print(f"bpd {value!r}")
    return 0


def cmd_run_case(args):
    cfg = _experiment_config(args)
    report = bench.run_case(cfg, flush_path=args.out)
    if args.plots:
        for path in bench.emit_plots(report, args.plots):
            print(f"wrote {path}")
    ok = sum(r.status == "ok" for r in report.rows)
    print(f"completed {len(report.rows)} cells ({ok} ok)")
    return 0


def cmd_score_mse(args):
    cfg = _experiment_config(args)
    rows = bench.score_mse_study(cfg)
    formats.write_score_mse_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_plot(args):
    report = formats.BpdReport.from_csv(args.report)
    for path in bench.emit_plots(report, args.out):
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="diffden",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="draw a dataset from a case density")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", help="optional metadata JSON sidecar path")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a score network on a dataset CSV")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="loss trace CSV path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="reverse-SDE samples from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("evaluate", help="BPD of generated samples under p0")
    _add_common(p)
    p.add_argument("--samples", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("run-case", help="full benchmark grid for one case")
    _add_common(p)
    p.add_argument("--out", help="report CSV path")
    p.add_argument("--plots", help="directory for SVG plots")
    p.set_defaults(fn=cmd_run_case)

    p = sub.add_parser("score-mse", help="score-MSE study over train sizes")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_score_mse)

    p = sub.add_parser("plot", help="SVG plots from a report CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DiffdenError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
