import dataclasses
import re

import numpy as np
import pytest

from parafosls import checks, driver, solver
from parafosls.analysis import decaying_sine_problem
from parafosls.checks import conformity_jumps
from parafosls.driver import ExperimentConfig, build_parser, main, run_experiment
from parafosls.evolution import check_stability_bound
from parafosls.forms import Coefficients, FormAssembler, ProblemVariant
from parafosls.mesh import Mesh


def tiny_config(**overrides):
    settings = dict(
        variant="primary", coupling="h", max_level=2, output_path=None
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_element_geometry_computed_once_per_mesh(monkeypatch):
    """A study level and its stability check share the mesh's one element
    geometry, and an assembler keeps no copy or view of it."""
    builds = []
    compute = Mesh.geometry.func

    def counting(mesh):
        builds.append(mesh.level)
        return compute(mesh)

    monkeypatch.setattr(Mesh.geometry, "func", counting)
    config = tiny_config()
    mesh = driver.mesh_hierarchy(2)[2]
    _, u, _, dofmap, partition = driver.run_level(config, 2, mesh)
    f = decaying_sine_problem(config.variant).f
    check_stability_bound(u, f, partition, mesh, dofmap)
    assert builds == [2]
    asm = FormAssembler(mesh, dofmap, Coefficients.constant(), config.variant)
    arrays = [v for v in vars(asm).values() if isinstance(v, np.ndarray)]
    assert not any(np.shares_memory(a, g) for a in arrays for g in mesh.geometry)


def test_step_size_couplings():
    h_cfg = tiny_config(coupling="h")
    h2_cfg = tiny_config(coupling="h2")
    for level in range(4):
        assert np.isclose(h_cfg.step_size(level), 0.1 * 2.0**-level)
        assert np.isclose(h2_cfg.step_size(level), 0.1 * 4.0**-level)


def test_partition_step_counts():
    cfg = tiny_config(coupling="h2")
    assert len(cfg.partition(0).steps) == 1
    assert len(cfg.partition(3).steps) == 64


def test_non_divisible_final_time_rejected():
    cfg = tiny_config(final_time=0.13)
    with pytest.raises(ValueError, match="multiple"):
        cfg.partition(1)


def test_run_experiment_names_failing_level():
    cfg = tiny_config(final_time=0.13)
    with pytest.raises(RuntimeError, match="failed at level 0"):
        run_experiment(cfg)


def test_run_experiment_reports_mesh_failure(monkeypatch):
    def broken_hierarchy(max_level):
        raise MemoryError("mesh too large")

    monkeypatch.setattr(driver, "mesh_hierarchy", broken_hierarchy)
    with pytest.raises(RuntimeError, match="failed at level 0: mesh too large") as info:
        run_experiment(tiny_config())
    assert isinstance(info.value.__cause__, MemoryError)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(coupling="h3")
    with pytest.raises(ValueError):
        tiny_config(max_level=-1)
    with pytest.raises(ValueError):
        tiny_config(k0=-0.1)
    for bad in (1.5, True, "2", -1):
        message = f"max_level must be a non-negative integer, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            tiny_config(max_level=bad)
    for name in ("final_time", "k0"):
        for bad in (float("nan"), float("inf"), "0.1", None, True):
            message = f"{name} must be positive and finite, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                tiny_config(**{name: bad})


def test_default_max_levels():
    """The dataclass and the CLI share one default per coupling."""
    assert ExperimentConfig().max_level == 5
    assert ExperimentConfig(coupling="h2").max_level == 5
    assert ExperimentConfig(coupling="h").max_level == 6
    assert ExperimentConfig(coupling="h", max_level=2).max_level == 2
    for coupling in ("h2", "h"):
        args = build_parser().parse_args(["run", "--coupling", coupling])
        assert driver._config_from_args(args) == ExperimentConfig(coupling=coupling)


def test_run_experiment_reports(tmp_path):
    cfg = tiny_config(output_path=str(tmp_path / "out.csv"))
    reports = run_experiment(cfg)
    assert [r.level for r in reports] == [0, 1, 2]
    assert all(r.err_u > 0 for r in reports)
    csv = (tmp_path / "out.csv").read_text().splitlines()
    assert csv[0] == "level,h,k,dofs,err_u,err_grad_u,err_sigma,err_div_sigma,natural_norm"
    assert len(csv) == 4
    rates = (tmp_path / "out.csv.rates.csv").read_text().splitlines()
    assert rates[0] == "quantity,level_from,level_to,rate"
    assert len(rates) == 1 + 5 * 2


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(tiny_config(output_path=str(out1)))
    run_experiment(tiny_config(output_path=str(out2)))
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(
        [
            "run",
            "--variant",
            "primary",
            "--coupling",
            "h",
            "--max-level",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    csv_block = printed.split("\n\n", 1)[0] + "\n"
    assert csv_block.startswith("level,h,k,dofs")
    assert csv_block == out.read_text()


def test_cli_rejects_bad_final_time(tmp_path, capsys):
    code = main(
        ["run", "--coupling", "h", "--max-level", "1", "--final-time", "0.13"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_rejects_non_finite_k0(capsys):
    assert main(["run", "--k0", "nan"]) == 1
    assert "error: k0 must be positive and finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--tol", "1e-9"],
        ["verify", "--tol", "1e-9"],
        ["run", "--config", "settings.cfg"],
        ["run", "--plot-data"],
        ["run", "--parallel"],
    ],
    ids=["run-tol", "verify-tol", "run-config", "run-plot-data", "run-parallel"],
)
def test_cli_has_no_removed_option(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


def test_out_in_missing_directory_fails_before_level_0(tmp_path, monkeypatch, capsys):
    levels = []
    monkeypatch.setattr(driver, "run_level", lambda config, level, mesh: levels.append(level))
    out = tmp_path / "missing" / "x.csv"
    assert main(["run", "--coupling", "h", "--max-level", "6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: output_path '{out}': no directory '{out.parent}'" in err
    assert levels == []
    with pytest.raises(ValueError, match="^output_path "):
        run_experiment(tiny_config(output_path=str(out)))
    assert levels == []


def test_out_that_is_a_directory_fails_before_level_0(tmp_path, monkeypatch, capsys):
    levels = []
    monkeypatch.setattr(driver, "run_level", lambda config, level, mesh: levels.append(level))
    assert main(["run", "--coupling", "h", "--max-level", "1", "--out", str(tmp_path)]) == 1
    assert f"error: output_path '{tmp_path}' is a directory" in capsys.readouterr().err
    with pytest.raises(ValueError, match="^output_path .* is a directory"):
        run_experiment(tiny_config(output_path=str(tmp_path)))
    assert levels == []
    assert list(tmp_path.iterdir()) == []


def test_single_level_run_writes_no_rates_file(tmp_path, capsys):
    out = tmp_path / "m0.csv"
    assert main(["run", "--coupling", "h", "--max-level", "0", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m0.csv"]
    assert len(out.read_text().splitlines()) == 2
    assert "rates" not in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["-1", "1.5", "one"])
def test_cli_verify_rejects_bad_seed(monkeypatch, capsys, bad):
    monkeypatch.setattr(checks, "CHECKS", STUB_CHECKS)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--seed", bad])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --seed: seed must be a non-negative integer, got {bad!r}" in err


def test_cli_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(["run", "--variant", "quaternary"])


# A registry of stand-in checks: the suite's wiring is tested on it, and
# every real check runs once, in test_acceptance.py::test_registry_check.
STUB_CHECKS = (
    ("first stub check", lambda seed: (True, "")),
    ("second stub check", lambda seed: (True, f"seed {seed}")),
)
STUB_LINES = ["PASS  first stub check", "PASS  second stub check  [seed 3]"]


def test_verification_suite_passes(monkeypatch, capsys):
    monkeypatch.setattr(checks, "CHECKS", STUB_CHECKS)
    results = checks.run_verification_suite(seed=3)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("first stub check", True, ""),
        ("second stub check", True, "seed 3"),
    ]
    assert capsys.readouterr().out.splitlines() == STUB_LINES


def test_cli_verify_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(checks, "CHECKS", STUB_CHECKS)
    assert main(["verify", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == STUB_LINES


def test_cli_verify_reports_a_failing_check(monkeypatch, capsys):
    failing = ("injected failure", lambda seed: (False, "detail of it"))
    monkeypatch.setattr(checks, "CHECKS", (checks.CHECKS[0], failing))
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS  {checks.CHECKS[0][0]}", "FAIL  injected failure  [detail of it]"]


def test_cli_verify_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    def raising(seed):
        raise solver.SolverError("residual 1.0e-14 above tolerance 1.0e-15")

    registry = (STUB_CHECKS[0], ("raising stub check", raising), STUB_CHECKS[1])
    monkeypatch.setattr(checks, "CHECKS", registry)
    assert main(["verify", "--seed", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        STUB_LINES[0],
        "FAIL  raising stub check  [SolverError: residual 1.0e-14 above tolerance 1.0e-15]",
        STUB_LINES[1],
    ]


def test_flipped_rt0_sign_breaks_flux_conformity(mesh_chain, dofmaps):
    """Mutation sanity: tampering with one orientation sign must be
    caught by the conformity check."""
    m, dm = mesh_chain[1], dofmaps[1]
    signs = m.triangle_edge_signs.copy()
    interior = np.flatnonzero(~m.boundary_edge)
    t, i = np.argwhere(m.triangle_edges == interior[0])[0]
    signs[t, i] = -signs[t, i]
    tampered = dataclasses.replace(m, triangle_edge_signs=signs)
    _, jump_flux = conformity_jumps(tampered, dm, seed=1)
    assert jump_flux > 1e-3


def test_variant_accepts_enum_and_string():
    assert tiny_config(variant=ProblemVariant.ALTERNATIVE).variant is ProblemVariant.ALTERNATIVE
    assert tiny_config(variant="alternative").variant is ProblemVariant.ALTERNATIVE
