"""Rerun statistical tests over several seeds and count their failures.

    PYTHONPATH=src python scripts/seed_audit.py --seeds 41
    PYTHONPATH=src python scripts/seed_audit.py --seeds 10 tests/test_kde.py::TestSampling

A statistical test checks a claim that holds with high probability, so a
green run at one seed says little about how often it fails.  This script
runs the named tests (pytest node ids; by default STATISTICAL below) once
per seed offset k = 0 .. N-1, one pytest subprocess at a time, with
DIFFDEN_TEST_SEED = 20240817 + k.  The `rng` fixture in tests/conftest.py
reads that variable, so k = 0 is the default tier-1 run, and only tests
that draw from the fixture move with it.  It prints, per test, the number
of offsets at which it failed and which ones; it changes no test, and it
exits 0 whatever the tests do.
"""
import argparse
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_ENV = "DIFFDEN_TEST_SEED"  # the name tests/conftest.py reads
DEFAULT_SEED = 20240817

# tests that draw from the `rng` fixture and check a Monte Carlo, sampling
# or finite-difference claim against a tolerance
STATISTICAL = (
    "tests/test_densities.py::TestIsoGaussian::test_sample_covariance",
    "tests/test_densities.py::TestGridMrf::test_sample_covariance_matches_inverse",
    "tests/test_densities.py::TestGridMrf::test_score_matches_finite_differences",
    "tests/test_densities.py::TestGaussMixture::test_component_occupancy",
    "tests/test_densities.py::TestGaussMixture::test_score_matches_finite_differences",
    "tests/test_densities.py::TestGaussMixture::test_forward_moments_match_noised_mixture",
    "tests/test_densities.py::TestFactorDensity::test_rejection_sampling_moments",
    "tests/test_densities.py::TestBpd::test_reference_bpd_iso",
    "tests/test_densities.py::TestBpd::test_reference_bpd_mrf_closed_form",
    "tests/test_densities.py::TestBpd::test_bpd_minus_reference_within_error",
    "tests/test_densities.py::TestScoreConvergesToDataScore::test_gaussian_families_at_small_t",
    "tests/test_diffusion.py::TestForwardSample::test_large_time_is_standard_normal",
    "tests/test_diffusion.py::TestDsmLoss::test_gradient_matches_finite_differences",
    "tests/test_diffusion.py::TestTrain::test_loss_decreases",
    "tests/test_diffusion.py::TestScoreMse::test_zero_score_matches_analytic_value",
    "tests/test_diffusion.py::TestScoreMse::test_mc_error_scaling",
    "tests/test_kde.py::TestSampling::test_single_datum_gaussian_moments",
    "tests/test_sampler.py::TestLangevin::test_bimodal_mixture_mass_split",
    "tests/test_sampler.py::TestVanillaSmLoss::test_exact_divergence_matches_fd",
    "tests/test_sampler.py::TestVanillaSmLoss::test_sliced_gradients_match_finite_differences",
    "tests/test_sampler.py::TestTrainVanillaSm::test_learns_gaussian_score",
)

# pytest's short summary line of a test that did not pass
_NOT_PASSED = re.compile(r"^(FAILED|ERROR) (\S+)")


def run_at(offset, tests):
    """Node ids of the tests that failed or errored at seed offset `offset`."""
    env = dict(os.environ, **{SEED_ENV: str(DEFAULT_SEED + offset)})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rfE", *tests],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode not in (0, 1):
        sys.exit(f"seed_audit: pytest exited {proc.returncode} at offset "
                 f"{offset}:\n{proc.stdout}")
    return [m[2] for m in map(_NOT_PASSED.match, proc.stdout.splitlines()) if m]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=41,
                        help="number of seed offsets, from 0 (default 41)")
    parser.add_argument("tests", nargs="*", default=list(STATISTICAL),
                        help="pytest node ids (default: STATISTICAL)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    failed_at = defaultdict(list)  # node id -> offsets at which it failed
    for offset in range(args.seeds):
        failed = run_at(offset, args.tests)
        print(f"offset {offset}: {len(failed)} failed", flush=True)
        for test in failed:
            failed_at[test].append(offset)
    print(f"\nfailures over {args.seeds} seed offsets from {DEFAULT_SEED}:")
    for test in args.tests:
        if not any(t == test or t.startswith((test + "[", test + ":"))
                   for t in failed_at):
            print(f"{0:4d}  {test}")
    for test, offsets in sorted(failed_at.items()):
        print(f"{len(offsets):4d}  {test}  offsets {','.join(map(str, offsets))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
