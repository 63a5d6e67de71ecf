"""End-to-end acceptance checks at their stated tolerances.

Each test prints exactly one pass/fail line. The convergence runs (both
variants, both step couplings, full depth) execute once in a module
fixture and are shared by the numbered rate and stability criteria;
the structural properties are the checks of ``parafosls.checks.CHECKS``,
the same list that ``parafosls verify`` runs.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from parafosls.analysis import ERROR_QUANTITIES, decaying_sine_problem, observed_rates
from parafosls.checks import CHECKS, L2_RATE_BAND, NATURAL_RATE_BAND, in_band
from parafosls.driver import ExperimentConfig, run_level
from parafosls.evolution import check_stability_bound
from parafosls.mesh import mesh_hierarchy

# Not a rate the analysis proves: the band in which the observed
# divergence rate under the quartered-step coupling is recorded.
DIV_FLUX_OBSERVATION_BAND = (0.7, 1.3)
RUN_SETUPS = {
    ("primary", "h2"): 5,
    ("primary", "h"): 6,
    ("alternative", "h2"): 5,
    ("alternative", "h"): 6,
}
# The benchmark's two studies are two of these runs; their errors at
# every level are recorded in the benchmark's reference.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
REFERENCE_STUDIES = {"h2-primary": ("primary", "h2"), "h-alternative": ("alternative", "h")}
REFERENCE_RTOL = 1e-10


def record(name, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiment_data():
    """All four full-depth convergence runs, with trajectories."""
    data = {}
    for (variant, coupling), max_level in RUN_SETUPS.items():
        cfg = ExperimentConfig(variant=variant, coupling=coupling, max_level=max_level)
        meshes = mesh_hierarchy(max_level)
        t0 = time.time()
        levels = [run_level(cfg, L, mesh=meshes[L]) for L in range(max_level + 1)]
        data[(variant, coupling)] = {
            "config": cfg,
            "meshes": meshes,
            "levels": levels,
            "reports": [entry[0] for entry in levels],
            "seconds": time.time() - t0,
        }
    return data


def check_h2_rates(run):
    rates = observed_rates(run["reports"])
    ok = (
        in_band(rates["err_u"][-1], L2_RATE_BAND)
        and in_band(rates["err_grad_u"][-1], NATURAL_RATE_BAND)
        and in_band(rates["err_sigma"][-1], NATURAL_RATE_BAND)
    )
    detail = (
        f"err_u {rates['err_u'][-1]:.3f}, grad {rates['err_grad_u'][-1]:.3f}, "
        f"sigma {rates['err_sigma'][-1]:.3f}, {run['seconds']:.0f}s"
    )
    return ok and run["seconds"] <= 300.0, detail


def check_h_rates(run):
    rates = observed_rates(run["reports"])
    finals = {q: rates[q][-1] for q in rates}
    ok = all(in_band(v, NATURAL_RATE_BAND) for v in finals.values())
    detail = ", ".join(f"{q} {v:.3f}" for q, v in finals.items())
    return ok and run["seconds"] <= 180.0, detail + f", {run['seconds']:.0f}s"


def test_criterion_1_l2_coupling_rates(experiment_data):
    ok, detail = check_h2_rates(experiment_data[("primary", "h2")])
    record("1 primary variant, k ~ h^2: second-order scalar error", ok, detail)


def test_criterion_2_energy_coupling_rates(experiment_data):
    ok, detail = check_h_rates(experiment_data[("primary", "h")])
    record("2 primary variant, k ~ h: first order in all quantities", ok, detail)


def test_criterion_3_alternative_variant(experiment_data):
    ok_h2, detail_h2 = check_h2_rates(experiment_data[("alternative", "h2")])
    ok_h, detail_h = check_h_rates(experiment_data[("alternative", "h")])
    record(
        "3 alternative variant reproduces both couplings",
        ok_h2 and ok_h,
        f"h2: {detail_h2} | h: {detail_h}",
    )


def test_criterion_4_stability_every_step(experiment_data):
    worst_margin = -np.inf
    ok = True
    for (variant, coupling), run in experiment_data.items():
        problem = decaying_sine_problem(variant)
        for (report, u, sigma, dofmap, partition), mesh in zip(run["levels"], run["meshes"]):
            try:
                lhs, rhs = check_stability_bound(u, problem.f, partition, mesh, dofmap)
            except AssertionError:
                ok = False
                break
            worst_margin = max(worst_margin, float(((lhs - rhs) / rhs).max()))
    record(
        "4 per-step stability bound on every run",
        ok,
        f"worst relative margin {worst_margin:.2e}",
    )


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_registry_check(name, check):
    record(name, *check(seed=0))


def test_observation_div_flux_rate_under_l2_coupling(experiment_data):
    """Not a pass/fail criterion of the scheme's analysis: the flux
    divergence is observed to converge like the flux itself under the
    quartered-step coupling; recorded with a wide band."""
    for variant in ("primary", "alternative"):
        rates = observed_rates(experiment_data[(variant, "h2")]["reports"])
        observed = rates["err_div_sigma"][-1]
        assert in_band(observed, DIV_FLUX_OBSERVATION_BAND), (
            f"{variant}: div-flux rate {observed:.3f}"
        )
        assert abs(observed - rates["err_sigma"][-1]) <= 0.3


@pytest.mark.parametrize("study, run", REFERENCE_STUDIES.items())
def test_studies_match_benchmark_reference(experiment_data, study, run):
    """Every level's five errors equal the benchmark reference to 1e-10
    relative, so a roundoff change that the benchmark would refuse fails
    here first."""
    expected = json.loads(REFERENCE.read_text())[study]
    reports = experiment_data[run]["reports"]
    assert sorted(expected, key=int) == [str(r.level) for r in reports]
    worst = max(
        abs(getattr(r, q) - e) / abs(e)
        for r in reports
        for q, e in zip(ERROR_QUANTITIES, expected[str(r.level)])
    )
    record(
        f"{study} errors within {REFERENCE_RTOL:g} of the benchmark reference",
        worst <= REFERENCE_RTOL,
        f"worst relative deviation {worst:.2e}",
    )
