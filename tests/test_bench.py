import math
from pathlib import Path

import numpy as np
import pytest

from diffden import cli, wsnn
from diffden.bench import (BpdReport, BpdRow, ExperimentConfig,
                           config_from_values, emit_plots, load_config,
                           make_density, parse_config_text, run_case,
                           score_mse_study, write_score_mse_csv)
from diffden.densities import iso_gaussian_bpd
from diffden.errors import BadConfig, EmptyReport
from diffden.numerics import Rng


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
        wsnn.save_checkpoint(path, arch, wsnn.init_params(arch, Rng(0)))
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
                           (header + "1,3,kde-g,fifty,0,2.1,0.5,ok\n", 2)):
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
        wsnn.save_checkpoint(ckpt, arch, wsnn.init_params(arch, Rng(0)))
        ckpt.write_bytes(ckpt.read_bytes()[:-16])
        rc = cli.main(["sample", "--checkpoint", str(ckpt), "--n", "8",
                       "--out", str(tmp_path / "samples.csv")])
        assert rc == 2
        assert "CorruptFile" in capsys.readouterr().err
