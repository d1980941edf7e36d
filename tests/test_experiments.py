"""Config parsing, coefficient generation, and the experiment driver."""

import numpy as np
import pytest

from wemp.cli import main
from wemp.experiments import (ConfigError, SOURCES, generate_kappa,
                              parse_config, run_experiment, run_unit_oracles,
                              source_rough, source_smooth, u0_standard)
from wemp.fem import CoefficientField, write_kappa_raster
from wemp.mesh import build_mesh
from wemp.soe import build_soe


# a small, fast baseline config; individual tests mutate copies of it
BASE = {
    "problem": {"alpha": "0.5", "T": "0.1", "tau_c": "0.05", "tau_f": "0.01",
                "epsilon": "1e-2", "level": "1"},
    "mesh": {"coarse_divisions": "2", "refinements": "2"},
    "kappa": {"kind": "constant"},
    "run": {"experiment": "soe-accuracy"},
}


def make_sections(overrides):
    """Copy BASE and apply {section: {key: value-or-None}} edits.

    A value of None removes the key; a section mapped to None is dropped.
    """
    sections = {name: dict(vals) for name, vals in BASE.items()}
    for name, vals in overrides.items():
        if vals is None:
            del sections[name]
            continue
        sec = sections.setdefault(name, {})
        for key, val in vals.items():
            if val is None:
                sec.pop(key, None)
            else:
                sec[key] = str(val)
    return sections


def write_config(path, overrides=None):
    sections = make_sections(overrides or {})
    lines = []
    for name, vals in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {val}" for key, val in vals.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def test_parse_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.ini"))
    assert cfg.alpha == 0.5
    assert cfg.T == 0.1
    assert cfg.tau_c == 0.05
    assert cfg.tau_f == 0.01
    assert cfg.level == 1
    assert cfg.epsilon == 1e-2
    assert cfg.n_exp is None
    assert cfg.source == "smooth"
    assert cfg.coarse_divisions == 2
    assert cfg.refinements == 2
    assert cfg.kappa_kind == "constant"
    assert cfg.kappa_params == {"value": 1.0}
    assert cfg.experiment == "soe-accuracy"
    # unset [run] keys take their documented defaults
    assert cfg.output == "out"
    assert cfg.delta == 1e-8
    assert cfg.k_max == 10
    assert cfg.seed == 0
    assert cfg.reference == "l1"


def test_parse_config_level_default(tmp_path):
    path = write_config(tmp_path / "a.ini", {"problem": {"level": None}})
    assert parse_config(path).level == 2


def test_parse_config_full_run_section(tmp_path):
    path = write_config(tmp_path / "a.ini", {
        "problem": {"epsilon": None, "n_exp": "31", "source": "rough"},
        "kappa": {"kind": "contrast-inclusions", "contrast": "1e4",
                  "count": "3"},
        "run": {"experiment": "wemp-convergence", "output": "results",
                "delta": "1e-6", "k_max": "5", "seed": "11",
                "reference": "soe"},
    })
    cfg = parse_config(path)
    assert cfg.epsilon is None and cfg.n_exp == 31
    assert cfg.source == "rough"
    assert cfg.kappa_params == {"contrast": 1e4, "count": 3, "size": 2}
    assert (cfg.output, cfg.delta) == ("results", 1e-6)
    assert (cfg.k_max, cfg.seed, cfg.reference) == (5, 11, "soe")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.ini"))


@pytest.mark.parametrize("overrides,match", [
    ({"problem": {"alpha": None}}, "missing key 'alpha'"),
    ({"mesh": None}, r"missing \[mesh\] section"),
    ({"problem": {"alpha": "fast"}}, r"\[problem\] alpha"),
    ({"problem": {"n_exp": "31"}}, "exactly one"),
    ({"problem": {"epsilon": None}}, "exactly one"),
    ({"problem": {"source": "spiky"}}, "source"),
    ({"kappa": {"kind": "perlin"}}, "not recognized"),
    ({"kappa": {"kind": "contrast-inclusions"}}, "missing key 'contrast'"),
    ({"kappa": {"kind": "raster-file"}}, "missing key 'path'"),
    ({"run": {"experiment": "make-coffee"}}, "not recognized"),
    ({"run": {"reference": "exact"}}, "reference"),
    ({"run": {"delta": "tiny"}}, r"\[run\] delta"),
    ({"mesh": {"coarse_divisions": "0"}}, ">= 1"),
    ({"problem": {"alpha": "1.5"}}, "alpha must lie"),
    ({"problem": {"tau_c": "0.03"}}, "divide T"),
    ({"problem": {"tau_f": "0.004"}}, "divide tau_c"),
    ({"run": {"k_mx": "1"}}, r"unknown key 'k_mx' in \[run\]"),
    ({"run": {"workers": "4"}}, r"unknown key 'workers' in \[run\]"),
    # [kappa] keys depend on the kind
    ({"kappa": {"contrast": "1e4"}}, r"unknown key 'contrast' in \[kappa\]"),
    ({"output": {"dir": "x"}}, r"unknown section \[output\]"),
    ({"run": {"experiment": "long-time"}}, "not recognized"),
    ({"problem": {"level": "-1"}}, "level must be >= 0"),
    ({"run": {"k_max": "-2"}}, "k_max must be >= 0"),
    ({"mesh": {"coarse_divisions": "1"},
      "run": {"experiment": "wemp-convergence"}}, "coarse_divisions"),
    ({"problem": {"level": "3"}, "run": {"experiment": "wemp-convergence"}},
     "level 3 needs"),
])
def test_parse_config_errors(tmp_path, overrides, match):
    path = write_config(tmp_path / "bad.ini", overrides)
    with pytest.raises(ConfigError, match=match):
        parse_config(path)


def test_sources_table():
    assert set(SOURCES) == {"smooth", "rough", "none"}
    assert SOURCES["none"] is None
    assert source_smooth(2.0, 3.0, 0.5) == 3.0
    # the rough source flips sign with the square wave sign(cos 2 pi t)
    assert source_rough(2.0, 3.0, 0.1) == 6.0
    assert source_rough(2.0, 3.0, 0.3) == -6.0
    assert u0_standard(0.5, 0.5) == 0.0625
    assert u0_standard(0.0, 0.7) == 0.0


def test_generate_kappa_constant():
    mesh = build_mesh(2, 2)
    field = generate_kappa("constant", {"value": 3.5}, mesh, seed=0)
    assert np.all(field.values == 3.5)
    assert field.values.size == 16
    default = generate_kappa("constant", {}, mesh, seed=0)
    assert np.all(default.values == 1.0)


def test_generate_kappa_inclusions_geometry():
    mesh = build_mesh(4, 8)
    params = {"contrast": 1e4, "count": 5, "size": 3}
    field = generate_kappa("contrast-inclusions", params, mesh, seed=3)
    values = field.values
    n = mesh.n_fine_per_axis
    hot = np.flatnonzero(values == 1e4)
    # disjoint square blocks, one per chosen coarse cell
    assert hot.size == 5 * 3 * 3
    assert np.all(values[np.setdiff1d(np.arange(n * n), hot)] == 1.0)
    ix, iy = hot % n, hot // n
    # every inclusion cell keeps one fine cell of margin to the coarse skeleton
    assert np.all((ix % 8 >= 1) & (ix % 8 <= 6))
    assert np.all((iy % 8 >= 1) & (iy % 8 <= 6))
    # the five blocks land in five distinct coarse cells
    coarse_ids = set(zip(ix // 8, iy // 8))
    assert len(coarse_ids) == 5


def test_generate_kappa_inclusions_seeding():
    mesh = build_mesh(4, 8)
    params = {"contrast": 100.0, "count": 5, "size": 3}
    a = generate_kappa("contrast-inclusions", params, mesh, seed=3)
    b = generate_kappa("contrast-inclusions", params, mesh, seed=3)
    c = generate_kappa("contrast-inclusions", params, mesh, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("params,match", [
    ({"contrast": 10.0, "count": 2, "size": 7}, "does not fit"),
    ({"contrast": 10.0, "count": 17, "size": 2}, "exceed"),
    ({"contrast": 10.0, "count": 0, "size": 2}, "positive"),
    ({"contrast": 10.0, "count": 2, "size": 0}, "positive"),
])
def test_generate_kappa_inclusion_errors(params, match):
    mesh = build_mesh(4, 8)
    with pytest.raises(ValueError, match=match):
        generate_kappa("contrast-inclusions", params, mesh, seed=0)


def test_generate_kappa_raster_roundtrip(tmp_path):
    mesh = build_mesh(2, 2)
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 2.0, size=16)
    path = tmp_path / "field.txt"
    write_kappa_raster(CoefficientField(values), path, 4, 4)
    field = generate_kappa("raster-file", {"path": str(path)}, mesh, seed=0)
    assert np.array_equal(field.values, values)


def test_generate_kappa_raster_size_mismatch(tmp_path):
    path = tmp_path / "field.txt"
    write_kappa_raster(CoefficientField(np.ones(16)), path, 4, 4)
    with pytest.raises(ValueError, match="raster has"):
        generate_kappa("raster-file", {"path": str(path)}, build_mesh(4, 2),
                       seed=0)


def test_generate_kappa_unknown_kind():
    with pytest.raises(ValueError, match="unknown kappa kind"):
        generate_kappa("checkerboard", {}, build_mesh(2, 2), seed=0)


def test_run_unit_oracles(tmp_path, capsys):
    failures = run_unit_oracles(tmp_path)
    assert failures == []
    text = (tmp_path / "oracles.txt").read_text()
    assert "FAIL" not in text
    assert text.count("ok  ") == 5
    for name in ("scalar-l1-vs-mittag-leffler", "l1-weight-lower-bound",
                 "soe-residual-certificate", "step-coefficient-identity",
                 "edge-wavelet-orthonormality"):
        assert name in text
    assert "ok  " in capsys.readouterr().out


def test_run_soe_accuracy_outputs(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.ini"))
    out = tmp_path / "out"
    code = run_experiment(cfg, out_dir=str(out))
    assert code == 0
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[0] == "t,relL2,relEnergy"
    # one row per coarse snapshot after t=0
    assert len(errors) == 1 + round(cfg.T / cfg.tau_c)
    summary = (out / "summary.txt").read_text()
    assert "experiment = soe-accuracy" in summary
    assert "max relL2" in summary
    assert "threshold = 1.0 %" in summary


def test_run_soe_accuracy_assert_breach(tmp_path):
    # a three-term sum cannot resolve the kernel, and the alpha < 0.5
    # acceptance threshold is a hundred times tighter, so --assert trips
    overrides = {"problem": {"alpha": "0.1", "epsilon": None, "n_exp": "3"}}
    cfg = parse_config(write_config(tmp_path / "a.ini", overrides))
    assert run_experiment(cfg, assert_mode=True,
                          out_dir=str(tmp_path / "strict")) == 2
    assert run_experiment(cfg, assert_mode=False,
                          out_dir=str(tmp_path / "loose")) == 0
    summary = (tmp_path / "strict" / "summary.txt").read_text()
    assert "threshold = 0.01 %" in summary


def test_run_experiment_numerical_failure(tmp_path, capsys):
    # the full-history reference refuses to allocate this many fine states,
    # which the driver reports as a numerical failure, not a config error
    overrides = {
        "problem": {"T": "1.0", "tau_c": "0.1", "tau_f": "1e-7"},
        "mesh": {"coarse_divisions": "8", "refinements": "8"},
    }
    cfg = parse_config(write_config(tmp_path / "a.ini", overrides))
    code = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().out


def wemp_overrides(**run_extra):
    run = {"experiment": "wemp-convergence", "delta": "1e-12", "k_max": "2"}
    run.update(run_extra)
    return {
        "problem": {"T": "0.4", "tau_c": "0.1", "tau_f": "0.02"},
        "mesh": {"coarse_divisions": "4", "refinements": "4"},
        "run": run,
    }


def test_run_wemp_convergence_outputs(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.ini", wemp_overrides()))
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=str(out)) == 0

    rows = (out / "iterations.csv").read_text().splitlines()
    assert rows[0] == "k,n,relL2,relEnergy,err"
    parsed = [row.split(",") for row in rows[1:]]
    ks = sorted({int(row[0]) for row in parsed})
    assert ks[0] == 0 and ks[-1] >= 1
    for row in parsed:
        assert 1 <= int(row[1]) <= 4
        # the initial sweep has no jump norm yet; it is written as -1
        if int(row[0]) == 0:
            assert float(row[4]) == -1.0
        else:
            assert float(row[4]) >= 0.0

    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "k,parallel_s,sweep_s,err"
    # one timing row per state, including the k=0 coarse sweep
    assert len(timings) == 2 + ks[-1]
    assert timings[1].split(",")[3] == "nan"

    summary = (out / "summary.txt").read_text()
    assert "ms dofs" in summary
    assert "iterations run" in summary


def test_run_wemp_convergence_soe_reference(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.ini",
                                    wemp_overrides(reference="soe")))
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=str(out)) == 0
    assert "experiment = wemp-convergence" in (out / "summary.txt").read_text()


def test_soe_accuracy_rerun_identical(tmp_path):
    path = write_config(tmp_path / "a.ini")
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_experiment(parse_config(path), out_dir=str(first)) == 0
    assert run_experiment(parse_config(path), out_dir=str(second)) == 0
    assert (first / "errors.csv").read_bytes() == \
        (second / "errors.csv").read_bytes()
    assert (first / "summary.txt").read_bytes() == \
        (second / "summary.txt").read_bytes()


def test_wemp_convergence_rerun_identical(tmp_path):
    path = write_config(tmp_path / "a.ini", wemp_overrides())
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_experiment(parse_config(path), out_dir=str(first)) == 0
    assert run_experiment(parse_config(path), out_dir=str(second)) == 0
    # iterate errors are bitwise identical; only the timings file may differ
    assert (first / "iterations.csv").read_bytes() == \
        (second / "iterations.csv").read_bytes()


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1


def test_cli_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_bad_workers_override(tmp_path, capsys):
    # there is no worker option: the local solves and slabs run serially,
    # so any --workers value is a usage error
    path = write_config(tmp_path / "a.ini")
    for value in ("0", "2"):
        assert main(["run", path, "--workers", value]) == 1
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_epsilon_above_feasibility_ceiling(tmp_path, capsys):
    # at T = 10 and tau_f = 0.1 the ceiling is 0.5 / 10^1.5 = 0.0158
    problem = {"T": "10", "tau_c": "0.5", "tau_f": "0.1", "epsilon": "0.05"}
    path = write_config(tmp_path / "a.ini", {"problem": problem})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "feasibility ceiling" in err
    # the rejected run leaves no output directory behind
    assert not (tmp_path / "out").exists()
    # just under the ceiling the same run goes through
    problem["epsilon"] = "0.015"
    path = write_config(tmp_path / "b.ini", {"problem": problem})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("experiment", ["soe-accuracy", "wemp-convergence"])
def test_cli_negative_level(tmp_path, capsys, experiment):
    overrides = {"problem": {"level": "-1"}, "run": {"experiment": experiment}}
    path = write_config(tmp_path / "a.ini", overrides)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "level must be >= 0" in err
    assert not (tmp_path / "out").exists()


def test_cli_level_too_fine_for_the_mesh(tmp_path, capsys):
    # refinements = 2: a neighbourhood side has 4 fine segments, which
    # carry level 2 but not level 3
    problem = {"level": "3"}
    overrides = {"problem": problem,
                 "run": {"experiment": "wemp-convergence", "k_max": "1"}}
    path = write_config(tmp_path / "a.ini", overrides)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "level 3" in err
    # the rejected run leaves no output directory behind
    assert not (tmp_path / "out").exists()
    # the finest level that fits goes through
    problem["level"] = "2"
    path = write_config(tmp_path / "b.ini", overrides)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


def test_cli_wemp_convergence_needs_an_interior_coarse_vertex(tmp_path,
                                                              capsys):
    # one coarse division has no interior coarse vertex, so no multiscale
    # column
    mesh = {"coarse_divisions": "1"}
    overrides = {"mesh": mesh,
                 "run": {"experiment": "wemp-convergence", "k_max": "1"}}
    path = write_config(tmp_path / "a.ini", overrides)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "coarse_divisions" in err
    # the rejected run leaves no output directory behind
    assert not (tmp_path / "out").exists()
    # two divisions give one interior vertex, and the run goes through
    mesh["coarse_divisions"] = "2"
    path = write_config(tmp_path / "b.ini", overrides)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0


def test_cli_negative_k_max(tmp_path, capsys):
    run = {"experiment": "wemp-convergence", "k_max": "-2"}
    path = write_config(tmp_path / "a.ini", {"run": run})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "k_max must be >= 0" in err
    assert not (tmp_path / "out").exists()
    # k_max = 0 runs the coarse sweep alone
    run["k_max"] = "0"
    path = write_config(tmp_path / "b.ini", {"run": run})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    assert "iterations run = 0" in capsys.readouterr().out


def test_cli_run_unit_oracles(tmp_path, capsys):
    overrides = {"run": {"experiment": "unit-oracles"}}
    path = write_config(tmp_path / "a.ini", overrides)
    out = tmp_path / "oracle-out"
    assert main(["run", path, "--out", str(out)]) == 0
    assert (out / "oracles.txt").exists()
    assert "ok  " in capsys.readouterr().out


def test_cli_run_assert_exit_code(tmp_path):
    overrides = {"problem": {"alpha": "0.1", "epsilon": None, "n_exp": "3"}}
    path = write_config(tmp_path / "a.ini", overrides)
    assert main(["run", path, "--assert", "--out",
                 str(tmp_path / "out")]) == 2


def test_cli_soe_table(capsys):
    assert main(["soe-table", "0.5", "1e-3", "1e-2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "j,omega,lambda"
    soe = build_soe(0.5, 1e-3, 1e-2)
    assert len(lines) == 1 + soe.n_terms
    assert "n_terms" in captured.err


def test_cli_soe_table_bad_alpha(capsys):
    assert main(["soe-table", "1.5", "1e-3", "1e-2"]) == 1
    assert "config error" in capsys.readouterr().err
