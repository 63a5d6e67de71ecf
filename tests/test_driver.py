import dataclasses

import numpy as np
import pytest

from parafosls import driver
from parafosls.driver import (
    ExperimentConfig,
    conformity_jumps,
    default_max_level,
    main,
    run_experiment,
    run_verification_suite,
)
from parafosls.forms import ProblemVariant


def tiny_config(**overrides):
    settings = dict(
        variant="primary", coupling="h", max_level=2, output_path=None
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


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


def test_default_max_levels():
    assert default_max_level("h2") == 5
    assert default_max_level("h") == 6


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


def test_parallel_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    run_experiment(tiny_config(output_path=str(seq)))
    run_experiment(tiny_config(output_path=str(par), parallel=True))
    assert seq.read_bytes() == par.read_bytes()


def test_plot_data_files(tmp_path):
    out = tmp_path / "study.csv"
    run_experiment(tiny_config(output_path=str(out), plot_data=True, max_level=1))
    for quantity in ("err_u", "err_grad_u", "err_sigma", "err_div_sigma", "natural_norm"):
        data = (tmp_path / f"study_{quantity}.dat").read_text().splitlines()
        assert len(data) == 2
        dofs, error = data[0].split()
        assert int(dofs) == 9
        assert float(error) > 0


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
    assert "level,h,k,dofs" in printed
    assert out.exists()


def test_cli_config_file_and_flag_override(tmp_path):
    config_file = tmp_path / "settings.cfg"
    config_file.write_text(
        "variant = alternative\n"
        "coupling = h\n"
        "max_level = 3   # overridden by the flag below\n"
        "\n"
        "out = %s\n" % (tmp_path / "file.csv")
    )
    code = main(["run", "--config", str(config_file), "--max-level", "1"])
    assert code == 0
    lines = (tmp_path / "file.csv").read_text().splitlines()
    assert len(lines) == 3  # header + levels 0..1, flag beats the file


def test_cli_rejects_bad_final_time(tmp_path, capsys):
    code = main(
        ["run", "--coupling", "h", "--max-level", "1", "--final-time", "0.13"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        main(["run", "--variant", "quaternary"])


def test_verification_suite_passes(capsys):
    results = run_verification_suite()
    out = capsys.readouterr().out
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert out.count("PASS") == len(results)
    assert "FAIL" not in out


def test_cli_verify_exit_code(capsys):
    assert main(["verify"]) == 0
    assert "PASS" in capsys.readouterr().out


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
