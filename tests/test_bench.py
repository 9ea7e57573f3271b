import math
from pathlib import Path

import numpy as np
import pytest

from diffden import bench, cli, densities, diffusion, formats, sampler, wsnn
from diffden.bench import (METHODS, ExperimentConfig, config_from_values,
                           emit_plots, load_config, make_density,
                           parse_config_text, run_case, score_mse_study)
from diffden.densities import iso_gaussian_bpd
from diffden.diffusion import network_score, score_mse
from diffden.errors import BadConfig, EmptyReport
from diffden.formats import BpdReport, BpdRow, write_score_mse_csv
from diffden.numerics import Rng


# every method at toy sizes: one run-case call takes milliseconds
TOY_CONFIG = ("K = 2\nn_list = 8\nrepetitions = 1\nsteps = 3\nbatch = 4\n"
              "n_eval = 5\nem_steps = 3\narch.widths = 4\n"
              "langevin_steps = 3\nmethods = " + ",".join(METHODS) + "\n")


def tiny_config(**kw):
    base = dict(case=1, grid_side=3, train_sizes=(100,), n_eval=256,
                methods=("kde-g",), seed=0, repetitions=2, steps=40,
                em_steps=60, hidden_widths=(16,))
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunCase:
    def test_kde_smoke(self):
        report = run_case(tiny_config())
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.status == "ok"
            assert math.isfinite(row.bpd)
            assert row.method == "kde-g"
            assert row.runtime_s >= 0.0

    def test_deterministic_rerun(self):
        cfg = tiny_config(methods=("kde-g", "kde-u"), train_sizes=(50, 100))
        a = run_case(cfg).deterministic_csv_bytes()
        b = run_case(cfg).deterministic_csv_bytes()
        assert a == b

    def test_analytic_method_close_to_entropy(self):
        # exact score through the reverse SDE must land near the analytic
        # N(0, I) entropy of ~2.0471 bits/dim
        cfg = tiny_config(case=1, grid_side=3, methods=("analytic",),
                          train_sizes=(50,), repetitions=1, n_eval=3000,
                          em_steps=500)
        report = run_case(cfg)
        assert abs(report.rows[0].bpd - iso_gaussian_bpd()) < 0.15

    def test_diffusion_cell_runs(self):
        cfg = tiny_config(case=1, grid_side=2, methods=("diffusion",),
                          train_sizes=(64,), repetitions=1, steps=60,
                          n_eval=128, em_steps=50)
        report = run_case(cfg)
        assert report.rows[0].status in ("ok", "infinite_bpd")

    def test_flush_path_written(self, tmp_path):
        path = tmp_path / "partial.csv"
        run_case(tiny_config(), flush_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3

    def test_flushed_file_is_the_report(self, tmp_path):
        # n=1 fails inside the kde cells, so the grid has error rows too
        path = tmp_path / "report.csv"
        report = run_case(tiny_config(methods=("kde-u", "kde-g"),
                                      train_sizes=(1, 50)), flush_path=path)
        assert {r.status for r in report.rows} == {"ok", "EmptyDataset"}
        assert path.read_text() == report.csv_text()

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_runs_a_cell(self, method):
        cfg = tiny_config(grid_side=2, methods=(method,), train_sizes=(64,),
                          repetitions=1, n_eval=128, steps=40, em_steps=30,
                          langevin_steps=30, hidden_widths=(8,))
        (row,) = run_case(cfg).rows
        assert (row.method, row.status) == (method, "ok")
        assert math.isfinite(row.bpd)

    def test_pipeline_trains_plain_networks_only(self, monkeypatch):
        # every network of every method, case and study is a plain MLP, so
        # no workload reaches the replica sum or its fold
        calls, archs = [], []
        for name in ("replica_sum", "replica_fold"):
            real = getattr(wsnn, name)

            def counted(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(wsnn, name, counted)
        real_init = wsnn.init_params

        def init_params(arch, rng):
            archs.append(arch)
            return real_init(arch, rng)

        monkeypatch.setattr(wsnn, "init_params", init_params)
        for case in (1, 2, 3):
            cfg = tiny_config(case=case, grid_side=2, methods=tuple(METHODS),
                              train_sizes=(64,), repetitions=1, n_eval=128, steps=10,
                              em_steps=10, langevin_steps=10, hidden_widths=(8,))
            run_case(cfg)
        score_mse_study(tiny_config(grid_side=2, train_sizes=(32,), repetitions=1,
                                    steps=5, hidden_widths=(8,)), n_mc=64)
        assert calls == []
        assert len(archs) == 3 * 2 + 1  # diffusion and vanilla-sm per case, the study
        assert all(all(arch.plain) for arch in archs)

    def test_csv_roundtrip(self, tmp_path):
        report = run_case(tiny_config(methods=("kde-g", "kde-u")))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        again = BpdReport.from_csv(path)
        assert len(again.rows) == len(report.rows)
        for a, b in zip(again.rows, report.rows):
            assert (a.case, a.k_or_m, a.method, a.n, a.repetition) == \
                (b.case, b.k_or_m, b.method, b.n, b.repetition)
            assert a.bpd == b.bpd and a.runtime_s == b.runtime_s
            assert a.status == b.status

    def test_diverged_training_is_a_non_finite_row(self, monkeypatch):
        """At lr = 1e30 both learned cells stop in training, before their
        sampler runs, and keep the NonFiniteState status."""
        sampled = []
        for name in ("reverse_sde_sample", "langevin_sample"):
            monkeypatch.setattr(sampler, name, lambda *args: sampled.append(args))
        report = run_case(tiny_config(methods=("diffusion", "vanilla-sm"),
                                      repetitions=1, learning_rate=1e30))
        assert [r.status for r in report.rows] == ["NonFiniteState"] * 2
        assert all(r.bpd == math.inf for r in report.rows)
        assert not sampled

    def test_no_nan_rows(self):
        report = run_case(tiny_config(methods=("kde-g", "kde-u")))
        for row in report.rows:
            assert not math.isnan(row.bpd)

    def test_cell_failure_becomes_typed_error_row(self):
        # automatic bandwidth needs n >= 2, so n=1 fails inside the cell
        report = run_case(tiny_config(train_sizes=(1,), repetitions=1))
        assert len(report.rows) == 1
        assert report.rows[0].status == "EmptyDataset"
        assert not math.isnan(report.rows[0].bpd)


class TestStreamLayout:
    """The literal stream keys of the README's reproducibility section."""

    def test_mixture_density_stream(self):
        cfg = ExperimentConfig(case=3, mixture_size=4, seed=5)
        want = densities.GaussMixture(9, 4, Rng(5).child(7))
        assert np.array_equal(make_density(cfg).means, want.means)

    def test_run_case_slot_is_one_plus_table_position(self):
        """Every cell fits on child(2) of slot 1 + the method's table
        position with its grid-order training seed, then samples n_eval
        from child(1), whatever the method's place in the config."""
        slots = {"diffusion": 1, "kde-g": 2, "kde-u": 3, "vanilla-sm": 4, "analytic": 5}
        assert list(METHODS) == list(slots)
        order = ("analytic", "vanilla-sm", "kde-u", "kde-g", "diffusion")
        cfg = tiny_config(grid_side=2, methods=order, train_sizes=(64,), n_eval=128,
                          steps=10, em_steps=10, langevin_steps=10,
                          hidden_widths=(8,), seed=4)
        density = make_density(cfg)
        rows = run_case(cfg).rows
        assert [(r.method, r.repetition) for r in rows] == \
            [(m, rep) for rep in (0, 1) for m in order]
        for i, row in enumerate(rows):
            assert row.status == "ok"
            data = density.sample(64, Rng(4).child(1, 2, 64, row.repetition, 0))
            cell = Rng(4).child(1, 2, 64, row.repetition, slots[row.method])
            fit, sample = METHODS[row.method]
            model = fit(cfg, density, data, cell.child(2), 4 * 1000003 + i)
            samples = sample(cfg, model, 4, 128, cell.child(1))
            assert row.bpd == densities.bpd(density, samples), row.method

    def test_score_mse_slot_is_99(self):
        """Both estimates are those of separate calls on the cell's stream
        3, as the study made them before it estimated both networks in one
        call: the initial one before training, the trained one after."""
        cfg = tiny_config(grid_side=2, train_sizes=(32,), repetitions=1,
                          steps=5, hidden_widths=(8,), seed=6)
        ((_, _, init, trained),) = score_mse_study(cfg, n_mc=600)
        arch = wsnn.mlp((5, 8, 4))
        cell = Rng(6).child(1, 2, 32, 0, 99)
        density, schedule = make_density(cfg), cfg.schedule()
        params = wsnn.init_params(arch, cell.child(2))
        want = score_mse(network_score(arch, params), density, schedule, 600,
                         cell.child(3))
        assert init == want.value
        data = density.sample(32, Rng(6).child(1, 2, 32, 0, 0))
        params, _ = diffusion.train(data, arch, params, schedule,
                                    cfg.train_config(6 * 1000003))
        want = score_mse(network_score(arch, params), density, schedule, 600,
                         cell.child(3))
        assert trained == want.value

    def test_score_mse_study_estimates_both_networks_in_one_call(self, monkeypatch):
        calls = []
        real = bench.score_mse

        def counted(scores, *args):
            calls.append(len(scores))
            return real(scores, *args)

        monkeypatch.setattr(bench, "score_mse", counted)
        cfg = tiny_config(grid_side=2, train_sizes=(32, 40), repetitions=2,
                          steps=5, hidden_widths=(8,))
        assert len(score_mse_study(cfg, n_mc=64)) == 4
        assert calls == [2] * 4

    def test_gen_data_stream(self, tmp_path):
        out = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--case", "2", "--K", "3", "--seed", "8",
                         "--n", "40", "--out", str(out)]) == 0
        density = make_density(ExperimentConfig(case=2, grid_side=3, seed=8))
        want = density.sample(40, Rng(8).child(2, 3, 40, 0, 0))
        assert np.array_equal(formats.read_csv(out), want)

    def test_train_and_sample_streams(self, tmp_path):
        """`train` initialises on Rng(seed).child(2) and trains on the seed
        itself; `sample` draws from Rng(seed).child(3)."""
        data_path, ckpt = tmp_path / "data.csv", tmp_path / "net.ckpt"
        out, want_out = tmp_path / "x.csv", tmp_path / "want.csv"
        formats.write_csv(data_path, Rng(11).normal_matrix(40, 2))
        flags = ["--seed", "5", "--steps", "6", "--batch", "8", "--widths", "8",
                 "--em-steps", "4"]
        assert cli.main(["train", "--data", str(data_path), "--out", str(ckpt),
                         *flags]) == 0
        cfg = ExperimentConfig(seed=5, steps=6, batch_size=8, hidden_widths=(8,),
                               em_steps=4)
        want = bench.fit_dsm(cfg, formats.read_csv(data_path), Rng(5).child(2), 5)[2]
        arch, params = formats.load_checkpoint(ckpt)
        for got, exp in zip(params.weights + params.biases, want.weights + want.biases):
            assert np.array_equal(got, exp)
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--n", "30",
                         "--out", str(out), *flags]) == 0
        formats.write_csv(want_out, bench.reverse_sde(
            cfg, network_score(arch, params), 2, 30, Rng(5).child(3)))
        assert out.read_bytes() == want_out.read_bytes()

    def test_unknown_method(self, capsys):
        with pytest.raises(BadConfig):
            tiny_config(methods=("kde-g", "nope"))
        assert cli.main(["run-case", "--methods", "nope"]) == 2
        assert "BadConfig" in capsys.readouterr().err


class TestPlots:
    def _report(self):
        rows = []
        for method in ("kde-g", "kde-u"):
            for n in (100, 500, 2000):
                for rep in range(2):
                    rows.append(BpdRow(1, 3, method, n, rep,
                                       2.0 + 0.1 * rep + (n == 100) * 0.3,
                                       0.5, "ok"))
        return BpdReport(rows)

    def test_svg_structure(self, tmp_path):
        files = emit_plots(self._report(), tmp_path / "plots")
        svg = [f for f in files if f.endswith(".svg")]
        assert len(svg) == 1
        text = Path(svg[0]).read_text()
        assert text.count("<polyline") == 2
        # three points per polyline
        for line in text.splitlines():
            if "<polyline" in line:
                coords = line.split('points="')[1].split('"')[0].split()
                assert len(coords) == 3
        assert "</svg>" in text

    def test_empty_report_raises(self, tmp_path):
        with pytest.raises(EmptyReport):
            emit_plots(BpdReport([]), tmp_path / "nothing")
        assert not (tmp_path / "nothing" / "bpd_report.csv").exists()

    def test_csv_written_alongside(self, tmp_path):
        files = emit_plots(self._report(), tmp_path / "plots")
        assert any(f.endswith("bpd_report.csv") for f in files)


class TestScoreMseStudy:
    def test_trend_in_n(self):
        # score-MSE after training improves on initialization in every cell
        # and its median does not grow from the smallest to the largest n
        cfg = tiny_config(case=1, grid_side=2, train_sizes=(250, 1000, 4000),
                          repetitions=3, steps=800, hidden_widths=(32, 32))
        rows = score_mse_study(cfg, n_mc=2048)
        assert all(trained < init for _, _, init, trained in rows)
        med = {}
        for n, _, _, trained in rows:
            med.setdefault(n, []).append(trained)
        medians = {n: sorted(v)[1] for n, v in med.items()}
        assert medians[4000] <= medians[250]

    def test_structure_and_csv(self, tmp_path):
        cfg = tiny_config(case=1, grid_side=2, train_sizes=(32, 64),
                          repetitions=1, steps=30, hidden_widths=(8,))
        rows = score_mse_study(cfg, n_mc=256)
        assert len(rows) == 2
        assert rows[0][0] == 32 and rows[1][0] == 64
        for _, _, init, trained in rows:
            assert math.isfinite(init) and math.isfinite(trained)
        path = tmp_path / "mse.csv"
        write_score_mse_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "n,repetition,score_mse_init,score_mse_trained"


class TestConfigParsing:
    def test_parse_and_build(self):
        text = """
        # comment
        case = 2
        K = 3
        n_list = 100, 500
        methods = kde-g, kde-u
        lr = 0.002
        arch.widths = 32, 32
        """
        values = parse_config_text(text)
        cfg = config_from_values(values)
        assert cfg.case == 2
        assert cfg.grid_side == 3
        assert cfg.train_sizes == (100, 500)
        assert cfg.methods == ("kde-g", "kde-u")
        assert cfg.learning_rate == 0.002
        assert cfg.hidden_widths == (32, 32)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("bogus = 1")

    @pytest.mark.parametrize("text", ["case 2", "bogus = 1", "case = x",
                                      "n_list = 100, many"])
    def test_bad_lines_raise_bad_config(self, text):
        with pytest.raises(BadConfig):
            parse_config_text(text)

    def test_bad_setting_raises_bad_config(self):
        with pytest.raises(BadConfig):
            ExperimentConfig(case=4)

    def test_load_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("case = 1\nseed = 9\nn_eval = 123\n")
        cfg = load_config(path)
        assert (cfg.case, cfg.seed, cfg.n_eval) == (1, 9, 123)

    def test_make_density_cases(self):
        assert make_density(ExperimentConfig(case=1)).dim == 9
        assert make_density(ExperimentConfig(case=2)).family == "grid_mrf"
        mix = make_density(ExperimentConfig(case=3, mixture_size=4))
        assert mix.n_components == 4


class TestCli:
    def test_gen_data_and_evaluate(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        meta = tmp_path / "meta.json"
        rc = cli.main(["gen-data", "--case", "1", "--K", "2", "--n", "500",
                       "--out", str(out), "--meta", str(meta)])
        assert rc == 0
        assert out.exists() and meta.exists()
        rc = cli.main(["evaluate", "--case", "1", "--K", "2",
                       "--samples", str(out)])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("bpd ")
        assert abs(float(line.split()[1]) - iso_gaussian_bpd()) < 0.2

    def test_train_sample_pipeline(self, tmp_path):
        data = tmp_path / "data.csv"
        ckpt = tmp_path / "net.ckpt"
        trace = tmp_path / "trace.csv"
        samples = tmp_path / "samples.csv"
        assert cli.main(["gen-data", "--case", "1", "--K", "2", "--n", "128",
                         "--out", str(data)]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--steps", "30", "--widths", "8",
                         "--trace", str(trace)]) == 0
        assert trace.read_text().startswith("epoch,mean_loss")
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--n", "64",
                         "--em-steps", "40", "--out", str(samples)]) == 0
        lines = samples.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,x4"
        assert len(lines) == 65

    def test_run_case_and_plot(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "case = 1\nK = 3\nn_list = 50, 100\nmethods = kde-g\n"
            "repetitions = 1\nn_eval = 200\nseed = 3\n")
        out = tmp_path / "report.csv"
        plots = tmp_path / "plots"
        assert cli.main(["run-case", "--config", str(cfgfile),
                         "--out", str(out), "--plots", str(plots)]) == 0
        assert out.exists()
        assert (plots / "bpd_case1_k3.svg").exists()
        assert cli.main(["plot", "--report", str(out),
                         "--out", str(tmp_path / "plots2")]) == 0

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        missing.write_text("x1\n")  # header only: empty dataset
        rc = cli.main(["evaluate", "--case", "1", "--samples", str(missing)])
        assert rc == 2
        assert "EmptyDataset" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "gen-data --seed -1 --n 10 --out {tmp}/out.csv",
        "train --seed -1 --data {tmp}/data.csv --out {tmp}/net.ckpt --steps 1",
        "run-case --seed -1 --n-list 10 --methods kde-g --repetitions 1",
        "score-mse --seed -1 --n-list 10 --repetitions 1 --out {tmp}/mse.csv",
        "gen-data --n -3 --out {tmp}/out.csv",
    ])
    def test_negative_seed_or_stream_key_exit_code(self, tmp_path, capsys, argv):
        (tmp_path / "data.csv").write_text("x1\n0.5\n1.5\n")
        assert cli.main(argv.format(tmp=tmp_path).split()) == 2
        assert "BadConfig" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.cfg"
        bogus.write_text("bogus = 3\n")
        unparsable = tmp_path / "unparsable.cfg"
        unparsable.write_text("case = x\n")
        no_step = tmp_path / "no_step.cfg"
        no_step.write_text("langevin_step = 0\n")
        no_steps = tmp_path / "no_steps.cfg"
        no_steps.write_text("langevin_steps = 0\n")
        non_finite = []
        for i, line in enumerate(("mrf_coupling = nan", "mrf_coupling = inf",
                                  "mrf_diag = inf", "langevin_step = inf")):
            non_finite.append(tmp_path / f"non_finite{i}.cfg")
            non_finite[-1].write_text(line + "\n")
        for argv in (["--config", str(bogus)], ["--config", str(unparsable)],
                     ["--case", "4"], ["--n-list", "100,many"],
                     ["--n-list", "0"], ["--T-min", "5", "--T-max", "1"],
                     ["--T-min", "0"], ["--config", str(no_step)],
                     ["--config", str(no_steps)], ["--em-steps", "0"],
                     ["--widths", ","], ["--widths", "8,0"],
                     ["--n-list", ","], ["--methods", ","],
                     ["--repetitions", "0"], ["--lr", "nan"], ["--lr", "inf"],
                     ["--T-max", "inf"],
                     *(["--config", str(path)] for path in non_finite)):
            assert cli.main(["run-case", *argv]) == 2
            assert "BadConfig" in capsys.readouterr().err
        for argv in (["evaluate", "--samples", str(tmp_path / "samples.csv")],
                     ["score-mse", "--out", str(tmp_path / "mse.csv")]):
            for path in non_finite[:2]:
                assert cli.main([*argv, "--case", "2", "--config", str(path)]) == 2
                assert "BadConfig" in capsys.readouterr().err
        train = ["train", "--data", str(tmp_path / "data.csv"),
                 "--out", str(tmp_path / "net.ckpt")]
        for argv in (["--steps", "0"], ["--batch", "0"], ["--lr", "-1"],
                     ["--lr", "nan"], ["--lr", "inf"]):
            assert cli.main([*train, *argv]) == 2
            assert "BadConfig" in capsys.readouterr().err

    def test_diverged_training_exit_code(self, tmp_path, capsys):
        data, ckpt = tmp_path / "data.csv", tmp_path / "net.ckpt"
        data.write_text("x1\n0.5\n1.5\n-0.25\n")
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--steps", "20", "--lr", "1e30"]) == 2
        err = capsys.readouterr().err
        assert "NonFiniteState: training diverged at step 1: loss " in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("t_max", ["1e39", "1e308"])
    def test_t_max_beyond_horizon_exit_code(self, capsys, t_max):
        assert cli.main(["run-case", "--T-max", t_max]) == 2
        assert "BadConfig: need 0 < t_min < t_max <= 1e+06" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train", "sample", "evaluate",
                                         "run-case", "score-mse", "plot"])
    def test_no_flag_value_ends_in_a_traceback(self, tmp_path, command):
        """Every subcommand, at toy sizes, with each flag set in turn to a
        negative, zero, huge-but-finite or non-finite value, an empty list or
        a file of the wrong width or without rows, returns 0 or exits 2
        (argparse's usage error); tier-1 turns numpy warnings into errors,
        so an overflow warning fails this too.  Sizes are never huge: a
        MemoryError is not a typed error."""
        toy = tmp_path / "toy.cfg"
        toy.write_text(TOY_CONFIG)
        files = {name: str(tmp_path / name) for name in
                 ("data.csv", "net.ckpt", "report.csv", "wide.csv", "empty.csv")}
        (tmp_path / "wide.csv").write_text("x1,x2,x3\n0.5,1,2\n")
        (tmp_path / "empty.csv").write_text("x1,x2,x3,x4\n")
        common = ["--config", str(toy)]
        out = ["--out", str(tmp_path / "out")]
        for argv in (["gen-data", "--n", "8", "--out", files["data.csv"]],
                     ["train", "--data", files["data.csv"], "--out", files["net.ckpt"]],
                     ["run-case", "--out", files["report.csv"]]):
            assert cli.main([argv[0], *common, *argv[1:]]) == 0
        sizes = ["-1", "0", "nan", ""]
        floats = ["-1", "0", "1e30", "1e308", "nan", "inf", "-inf", ""]
        lists = ["-1", "0", "1,-1", "nan", "", ","]
        flags = {"--case": ["-1", "0", str(10 ** 30), "nan", ""], "--K": sizes,
                 "--M": sizes, "--n-list": lists, "--n-eval": sizes,
                 "--methods": ["", ",", "nope"], "--seed": ["-1", str(10 ** 30), ""],
                 "--repetitions": sizes, "--steps": sizes,
                 "--batch": ["-1", "0", str(10 ** 30), ""], "--lr": floats,
                 "--T-min": floats, "--T-max": floats, "--em-steps": sizes,
                 "--widths": lists}
        base = {"gen-data": ["--n", "8", *out],
                "train": ["--data", files["data.csv"], *out],
                "sample": ["--checkpoint", files["net.ckpt"], "--n", "5", *out],
                "evaluate": ["--samples", files["data.csv"]],
                "run-case": out, "score-mse": out}
        calls = [[command, *common, *base[command], flag, value]
                 for flag, values in flags.items() for value in values
                 if command in base]
        by_file = {"gen-data": [["--n", n, *out] for n in ("-1", "0")],
                   "train": [["--data", files[f], *out]
                             for f in ("wide.csv", "empty.csv", "net.ckpt")],
                   "sample": [["--checkpoint", files[f], "--n", "5", *out]
                              for f in ("data.csv", "empty.csv")]
                   + [["--checkpoint", files["net.ckpt"], "--n", n, *out]
                      for n in ("-1", "0")],
                   "evaluate": [["--samples", files[f]]
                                for f in ("wide.csv", "empty.csv", "net.ckpt")],
                   "plot": [["--report", files[f], *out]
                            for f in ("report.csv", "wide.csv", "empty.csv")]}
        calls += [[command, *(common if command != "plot" else []), *argv]
                  for argv in by_file.get(command, [])]
        assert calls
        for argv in calls:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert rc in (0, 2), argv

    @pytest.mark.parametrize("key", ["langevin_step", "langevin_steps", "mrf_diag",
                                     "mrf_coupling"])
    def test_no_config_file_value_ends_in_a_traceback(self, tmp_path, key):
        """The keys only a config file sets, each in turn negative, zero,
        huge-but-finite or non-finite in the toy config: every run-case call,
        on the MRF case and on the mixture case, returns 0 or exits 2."""
        cfg = tmp_path / "cfg"
        for value in ("-1", "0", "1e30", "1e308", "nan", "inf"):
            cfg.write_text(TOY_CONFIG + f"{key} = {value}\n")
            for case in ("2", "3"):
                argv = ["run-case", "--config", str(cfg), "--case", case]
                assert cli.main(argv) in (0, 2), (key, value, case)

    def test_overflowing_langevin_step_is_a_cell_status(self, tmp_path):
        cfg, out = tmp_path / "cfg", tmp_path / "report.csv"
        cfg.write_text(TOY_CONFIG + "langevin_step = 1e308\n")
        assert cli.main(["run-case", "--config", str(cfg), "--case", "3",
                         "--methods", "vanilla-sm", "--out", str(out)]) == 0
        [row] = BpdReport.from_csv(out).rows
        assert (row.method, row.bpd, row.status) == ("vanilla-sm", math.inf,
                                                     "NonFiniteState")

    def test_huge_checkpoint_sample_exit_code(self, tmp_path, capsys):
        """One Adam step at lr 1e30 leaves finite weights near 1e30, which
        overflow the float32 pass of the sampler's score."""
        data, ckpt = tmp_path / "data.csv", tmp_path / "net.ckpt"
        data.write_text("x1,x2\n0.5,1\n1.5,-1\n-0.25,0.3\n")
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--steps", "1", "--lr", "1e30"]) == 0
        capsys.readouterr()
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--n", "5",
                         "--out", str(tmp_path / "samples.csv")]) == 2
        assert "NonFiniteState: state left" in capsys.readouterr().err

    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        out = str(tmp_path / "out")
        for argv in (["evaluate", "--case", "1", "--samples", missing],
                     ["run-case", "--config", missing],
                     ["train", "--data", missing, "--out", out],
                     ["sample", "--checkpoint", missing, "--n", "4", "--out", out]):
            assert cli.main(argv) == 2
            assert "FileNotFoundError" in capsys.readouterr().err

    def test_invalid_checkpoint_exit_code(self, tmp_path, capsys):
        arch = wsnn.mlp((3, 4, 2))
        path = tmp_path / "net.ckpt"
        formats.save_checkpoint(path, arch, wsnn.init_params(arch, Rng(0)))
        data = path.read_bytes()
        # the replica count is at byte 40 and the first Q entry at byte 64
        for at in (40, 64):
            path.write_bytes(data[:at] + np.int64(-1).tobytes() + data[at + 8:])
            assert cli.main(["sample", "--checkpoint", str(path), "--n", "4",
                             "--out", str(tmp_path / "x.csv")]) == 2
            assert f"CorruptFile: {path}: invalid network" in capsys.readouterr().err

    def test_malformed_report_exit_code(self, tmp_path, capsys):
        header = "case,k_or_m,method,n,repetition,bpd,runtime_s,status\n"
        for text, line in (("hostname\n", 1),
                           (header + "1,3,kde-g,50,0,2.1,0.5,ok\n1,3,kde-g\n", 3),
                           (header + "1,3,kde-g,fifty,0,2.1,0.5,ok\n", 2),
                           (header + "1,3,kde-g,50,0,2.1,0.5,ok\n1,3,kde-u,50,0,nan,0.5,ok\n",
                            3)):  # README: "Rows never contain NaN"
            path = tmp_path / "report.csv"
            path.write_text(text)
            assert cli.main(["plot", "--report", str(path),
                             "--out", str(tmp_path / "plots")]) == 2
            assert f"CorruptFile: {path} line {line}:" in capsys.readouterr().err

    def test_non_utf8_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bin.csv"
        path.write_bytes(bytes(range(128, 192)))
        for argv in (["evaluate", "--case", "1", "--K", "2", "--samples", str(path)],
                     ["plot", "--report", str(path), "--out", str(tmp_path / "plots")],
                     ["run-case", "--config", str(path)]):
            assert cli.main(argv) == 2
            assert f"CorruptFile: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_list_flags_parse_like_config_lines(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("methods = kde-g, kde-u\nn_list = 50,,60\n")
        parser = cli.build_parser()
        from_file = cli._experiment_config(
            parser.parse_args(["run-case", "--config", str(cfgfile)]))
        from_flags = cli._experiment_config(parser.parse_args(
            ["run-case", "--methods", "kde-g, kde-u", "--n-list", "50,,60"]))
        assert from_flags == from_file
        assert (from_flags.methods, from_flags.train_sizes) == (("kde-g", "kde-u"),
                                                                (50, 60))

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("x1,x2,x3,x4\n0.1,0.2,0.3,0.4\n")
        assert cli.main(["evaluate", "--case", "1", "--K", "3",
                         "--samples", str(path)]) == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_gen_data_zero_rows_exit_code(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        assert cli.main(["gen-data", "--case", "2", "--K", "3", "--n", "0",
                         "--out", str(out)]) == 2
        assert "InvalidSize" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        for text in ("y1,y2\n1,2\n", "x1,x2\n1,abc\n", "x1,x2\n1,2\n3\n"):
            path = tmp_path / "bad.csv"
            path.write_text(text)
            assert cli.main(["evaluate", "--case", "1", "--K", "2",
                             "--samples", str(path)]) == 2
            assert "CorruptFile" in capsys.readouterr().err

    def test_k_and_m_flags_reach_config(self):
        args = cli.build_parser().parse_args(["run-case", "--K", "4", "--M", "5"])
        cfg = cli._experiment_config(args)
        assert (cfg.grid_side, cfg.mixture_size) == (4, 5)

    def test_truncated_checkpoint_exit_code(self, tmp_path, capsys):
        ckpt = tmp_path / "net.ckpt"
        arch = wsnn.mlp((5, 8, 4))
        formats.save_checkpoint(ckpt, arch, wsnn.init_params(arch, Rng(0)))
        ckpt.write_bytes(ckpt.read_bytes()[:-16])
        rc = cli.main(["sample", "--checkpoint", str(ckpt), "--n", "8",
                       "--out", str(tmp_path / "samples.csv")])
        assert rc == 2
        assert "CorruptFile" in capsys.readouterr().err

    def test_non_finite_checkpoint_exit_code(self, tmp_path, capsys):
        # the NaN checkpoint a diverged run (`train --lr 1e30`) writes: the
        # fault is the file's, not the sampler's
        arch = wsnn.mlp((5, 8, 4))
        params = wsnn.init_params(arch, Rng(0))
        params.weights[1][2, 3] = math.nan
        ckpt = tmp_path / "net.ckpt"
        formats.save_checkpoint(ckpt, arch, params)
        out = tmp_path / "samples.csv"
        assert cli.main(["sample", "--checkpoint", str(ckpt), "--n", "8",
                         "--out", str(out)]) == 2
        assert f"CorruptFile: {ckpt}: layer 2 " in capsys.readouterr().err
        assert not out.exists()
