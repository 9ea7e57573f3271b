"""Toy-size self-test of the benchmark harness.

Every workload runs on a tiny config, untraced and traced, and must report
exactly the metrics BENCHMARK.json names, each with its unit.  No speed
figure is asserted.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy(config):
    return replace(config, grid_side=3, train_sizes=(50,), n_eval=64,
                   steps=3, em_steps=3, langevin_steps=3)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, shrink=toy) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})


def test_spec_matches_harness():
    import workloads

    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == run.per_layer_names())
    assert ([(w["name"], w["why"]) for w in SPEC["workloads"]]
            == [(w.name, w.why) for w in workloads.WORKLOADS.values()])


def test_missing_targets_report_zero_calls():
    from diffden import diffusion

    original = diffusion.score_t_batch
    gone = spans.Wrap("gone", ("diffden.diffusion:no_such_function",
                               "no_such_module:f",
                               "diffden.numerics:Rng.no_such_method"))
    kept = spans.Wrap("diffusion.score_t_batch",
                      ("diffden.diffusion:score_t_batch",))
    with spans.Tracer((gone, kept)) as tracer:
        assert diffusion.score_t_batch is not original
    assert diffusion.score_t_batch is original
    assert len(tracer.missing) == 3
    assert spans.median_metrics([{}], ["gone.calls"]) == {"gone.calls": 0}
