"""sha256 of every result a bit-identical change must keep.

    PYTHONPATH=src python scripts/bits.py

Run it on two checkouts and diff the output: each line is a result name
and the first 16 hex digits of the hash of its bytes, and the last line,
`ALL <hash>`, covers them all.  The results are the report bytes of
`bench.run_case` on cases 1-3 and the `bench.score_mse_study` rows; DSM
training (trained float64 weights and per-epoch mean losses of its
float32 passes) on a plain MLP, on a masked network with two permuted
replicas per hidden layer, on a plain MLP with a 0/1 mask on every layer
(its masked negative weights are -0.0), on a dataset with duplicated rows
and signed zeros, and with one full batch; one evaluation of the float32
`network_score` at 3000 rows on the initial weights, with biases drawn
from a fixed stream (`init_params` leaves every bias at zero, which would
hide how a pass adds them), so that it moves with the score's arithmetic
only; reverse-SDE sampling on the trained network; vanilla-SM
training; a DSM and a sliced vanilla-SM training run of two whole
training blocks and a tail (`*_block_tail`); Langevin sampling;
`wsnn.backward`'s parameter and input gradients on a masked network
with two permuted replicas per hidden layer and random biases
(`backward_replicated`); one float32-parameter step each of
`dsm_value_and_grads` and `vanilla_sm_sliced_value_and_grads`, loss
and gradients, at batch 128 on random biases (`dsm_step32`,
`sliced_step32`); the
dense matrix `conv_as_wsnn(5, 2).materialize` builds from a filter whose
negative entries are -0.0; the dataset CSV and metadata JSON that
`diffden gen-data --meta` writes on cases 1-3; every other file the CLI
writes (`file_*`: the checkpoint and the loss trace of `train --trace`,
the dataset CSV of `sample`, the `score-mse --out` CSV, the `run-case
--out` report and the SVGs of `plot`, each with its wall-clock column
dropped); and the normal draws, float64 (numpy's ziggurat) and float32
(Box-Muller, the samplers' draws).  `score32` hashes the float32 score
output widened to float64, the bytes it had when the scores returned
float64.
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

# diffden pins the BLAS threads to 1 (as the CLI runs) only if it loads
# before numpy, so it is imported first
import diffden  # noqa: F401
import numpy as np

from diffden import bench, cli, diffusion, sampler, wsnn
from diffden.numerics import Rng

h = {}


def put(name, data):
    h[name] = hashlib.sha256(data).hexdigest()[:16]


def put_training(name, params, trace):
    put(name, b"".join(a.tobytes() for a in params.weights + params.biases)
        + repr([(r.epoch, r.mean_loss) for r in trace]).encode())


def replicated(widths, m, gen):
    """Two-hidden-layer network with m permuted replicas per hidden layer
    and a random 0/1 mask on every layer."""
    q = tuple(tuple(wsnn.Permutation(gen.permutation(widths[i])) for _ in range(m))
              for i in range(len(widths) - 2))
    r = tuple(tuple(wsnn.Permutation(gen.permutation(widths[i + 1])) for _ in range(m))
              for i in range(len(widths) - 2))
    masks = tuple((gen.random((widths[i + 1], widths[i])) < 0.7).astype(float)
                  for i in range(len(widths) - 1))
    return wsnn.WsnnArchitecture(widths, (m,) * (len(widths) - 2), q, r,
                                 weight_masks=masks)


for case in (1, 2, 3):
    cfg = bench.ExperimentConfig(case=case, grid_side=3, methods=tuple(bench.METHODS),
                                 train_sizes=(200, 1000), n_eval=3000,
                                 repetitions=1, steps=150, em_steps=60,
                                 langevin_steps=60, langevin_step=0.05, seed=1)
    put(f"run_case{case}", bench.run_case(cfg).deterministic_csv_bytes())
rows = bench.score_mse_study(bench.ExperimentConfig(case=2, grid_side=3,
                             train_sizes=(500,), repetitions=1, steps=150, seed=2))
put("score_mse_study", repr(rows).encode())

sched = diffusion.DiffusionSchedule()
arch = wsnn.mlp((10, 64, 64, 9))
data = np.random.default_rng(3).normal(size=(700, 9))
p0 = wsnn.init_params(arch, Rng(5))
params, trace = diffusion.train(data, arch, p0, sched,
                                diffusion.TrainConfig(steps=120, seed=4))
put_training("dsm_weights", params, trace)

rarch = replicated((10, 12, 8, 9), 2, np.random.default_rng(11))
put_training("dsm_replicas", *diffusion.train(
    data, rarch, wsnn.init_params(rarch, Rng(12)), sched,
    diffusion.TrainConfig(batch_size=32, steps=60, seed=13)))

gen = np.random.default_rng(14)
dup = data[gen.integers(0, 40, 300)]
dup[::7, 0] = 0.0
dup[1::7, 0] = -0.0
put_training("dsm_duplicates", *diffusion.train(
    dup, arch, p0, sched, diffusion.TrainConfig(batch_size=64, steps=60, seed=15)))
put_training("dsm_full_batch", *diffusion.train(
    data[:100], arch, p0, sched, diffusion.TrainConfig(batch_size=128, steps=40, seed=16)))

gen = np.random.default_rng(17)
masks = tuple((gen.random(arch.layer_shape(i)) < 0.7).astype(float) for i in range(3))
march = wsnn.WsnnArchitecture(arch.widths, arch.replicas, arch.q_perms, arch.r_perms,
                              weight_masks=masks)
put_training("dsm_masked_plain", *diffusion.train(
    data, march, wsnn.init_params(march, Rng(18)), sched,
    diffusion.TrainConfig(batch_size=64, steps=200, seed=19)))

x = Rng(22).normal_matrix(3000, 9)
biased = wsnn.WsnnParams.of(p0.weights, [Rng(30).child(i).standard_normal(b.size)
                                         for i, b in enumerate(p0.biases)])
put("score32", diffusion.network_score(arch, biased)(x, Rng(23).uniform(3000, 1e-3, 3.0))
    .astype(np.float64).tobytes())
y = sampler.reverse_sde_sample(diffusion.network_score(arch, params), sched,
                               sampler.SamplerConfig(80, 3000), 9, Rng(6))
put("reverse_sde", y.tobytes())
varch = wsnn.mlp((9, 64, 64, 9))
vp = wsnn.init_params(varch, Rng(7))
vt, _ = sampler.train_vanilla_sm(data, varch, vp, diffusion.TrainConfig(steps=40, seed=8))
put("vanilla_weights", b"".join(a.tobytes() for a in vt.weights + vt.biases))
# 2K + 3 steps, K the steps of one training block (8 denoising steps at batch
# 128; 4 sliced steps at batch 32, 7 x 32 input rows a step): two whole
# blocks, then a tail of 3
put_training("dsm_block_tail", *diffusion.train(
    data, arch, p0, sched, diffusion.TrainConfig(batch_size=128, steps=19, seed=28)))
put_training("sliced_block_tail", *sampler.train_vanilla_sm(
    data, varch, vp, diffusion.TrainConfig(batch_size=32, steps=11, seed=29)))
z = sampler.langevin_sample(diffusion.network_score(varch, vp), 0.01, 80,
                            3000, 9, Rng(9))
put("langevin", z.tobytes())
rp = wsnn.init_params(rarch, Rng(31))
rp = wsnn.WsnnParams.of(rp.weights, [Rng(32).child(i).standard_normal(b.size)
                                     for i, b in enumerate(rp.biases)])
grads, dx = wsnn.backward(rarch, rp, Rng(33).normal_matrix(300, 10),
                          Rng(34).normal_matrix(300, 9))
put("backward_replicated", b"".join(a.tobytes() for a in grads.weights + grads.biases)
    + dx.tobytes())
loss, grads = diffusion.dsm_value_and_grads(
    arch, biased.astype(np.float32), sched, Rng(35).normal_matrix(128, 9),
    Rng(36).uniform(128, 1e-3, 3.0), Rng(37).normal_matrix(128, 9))
put("dsm_step32", repr(loss).encode()
    + b"".join(a.tobytes() for a in grads.weights + grads.biases))
vb = wsnn.WsnnParams.of(vp.weights, [Rng(38).child(i).standard_normal(b.size)
                                     for i, b in enumerate(vp.biases)])
loss, grads = sampler.vanilla_sm_sliced_value_and_grads(
    varch, vb.astype(np.float32), Rng(39).normal_matrix(128, 9),
    2.0 * Rng(40).integers(0, 2, (3, 128, 9)) - 1.0, 0.1)
put("sliced_step32", repr(loss).encode()
    + b"".join(a.tobytes() for a in grads.weights + grads.biases))
filt = np.random.default_rng(20).normal(size=4)
filt *= filt > 0  # negative entries become -0.0
put("conv_materialize", wsnn.conv_as_wsnn(5, 2).materialize(filt).tobytes())
with tempfile.TemporaryDirectory() as tmp:
    for case in (1, 2, 3):
        csv, meta = Path(tmp, f"data{case}.csv"), Path(tmp, f"meta{case}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["gen-data", "--case", str(case), "--seed", "21", "--n", "300",
                           "--out", str(csv), "--meta", str(meta)])
        assert rc == 0, f"gen-data failed on case {case}"
        put(f"gen_data{case}", csv.read_bytes())
        put(f"gen_meta{case}", meta.read_bytes())
    cfg_path = Path(tmp, "run.cfg")
    cfg_path.write_text("case = 3\nK = 2\nM = 2\nn_list = 60\nrepetitions = 1\n"
                        "steps = 30\nem_steps = 20\nn_eval = 200\nseed = 24\n"
                        "langevin_steps = 20\nlangevin_step = 0.05\n"
                        f"methods = {', '.join(bench.METHODS)}\n")
    files = {name: Path(tmp, name) for name in (
        "net.ckpt", "trace.csv", "samples.csv", "mse.csv", "report.csv", "plots")}
    for argv in (["train", "--data", str(Path(tmp, "data1.csv")), "--steps", "40",
                  "--seed", "25", "--out", str(files["net.ckpt"]),
                  "--trace", str(files["trace.csv"])],
                 ["sample", "--checkpoint", str(files["net.ckpt"]), "--n", "300",
                  "--em-steps", "30", "--seed", "26", "--out", str(files["samples.csv"])],
                 ["score-mse", "--case", "2", "--K", "2", "--n-list", "50",
                  "--repetitions", "1", "--steps", "30", "--seed", "27",
                  "--out", str(files["mse.csv"])],
                 ["run-case", "--config", str(cfg_path), "--out", str(files["report.csv"])],
                 ["plot", "--report", str(files["report.csv"]), "--out", str(files["plots"])]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        assert rc == 0, f"{argv[0]} failed"

    def drop_column(path, name):
        lines = [line.split(",") for line in path.read_text().splitlines()]
        col = lines[0].index(name)
        return "".join(",".join(c[:col] + c[col + 1:]) + "\n" for c in lines).encode()

    put("file_checkpoint", files["net.ckpt"].read_bytes())
    put("file_trace", drop_column(files["trace.csv"], "wall_time_s"))
    put("file_samples", files["samples.csv"].read_bytes())
    put("file_score_mse", files["mse.csv"].read_bytes())
    put("file_report", drop_column(files["report.csv"], "runtime_s"))
    for svg in sorted(files["plots"].glob("*.svg")):
        put(f"file_{svg.stem}", svg.read_bytes())
for n in (1, 2, 3, 127, 27000, 27001):
    put(f"normal{n}", Rng(10).child(n).standard_normal(n).tobytes())
    put(f"normal32_{n}", Rng(10).child(n).standard_normal(n, out=np.empty(n, np.float32))
        .tobytes())
for k, v in h.items():
    print(k, v)
print("ALL", hashlib.sha256(repr(sorted(h.items())).encode()).hexdigest())
