"""Experiment orchestration behind the command line.

Config files are flat key = value text under [section] headers (readable by
configparser and by anything else); a section or key the parser does not
read is a config error. Three experiments:

* soe-accuracy: fine-space exponential-sum scheme against the L1 reference;
* wemp-convergence: parareal iterates against the fine reference (L1 or
  exponential-sum, selected by [run] reference);
* unit-oracles: the analytic self-checks, printed as pass/fail lines.

All errors are reported as (|u - u_hat| / |u|) * 100, i.e. in percent.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .fem import CoefficientField, assemble_operators, read_kappa_raster
from .mesh import build_mesh
from .msfem import assemble_space, build_partition_of_unity, edge_wavelets
from .parareal import build_context, wemp_solve, write_iteration_csv
from .soe import (build_soe, build_soe_for_terms, soe_residual,
                  step_coefficients, validate_epsilon)
from .solvers import (ProblemSpec, fine_soe_solve, reference_l1_solve,
                      relative_errors_percent, single_dof_setup,
                      write_error_csv)
from .stepping import l1_coefficients, mittag_leffler_neg


class ConfigError(Exception):
    """Raised for malformed or inconsistent config files."""


def u0_standard(x, y):
    return x * (1.0 - x) * y * (1.0 - y)


def source_smooth(x, y, t):
    return x * y * t


def source_rough(x, y, t):
    return np.sign(np.cos(2.0 * np.pi * t)) * x * y


SOURCES = {"smooth": source_smooth, "rough": source_rough, "none": None}


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    T: float
    tau_c: float
    tau_f: float
    level: int
    epsilon: Optional[float]
    n_exp: Optional[int]
    source: str
    coarse_divisions: int
    refinements: int
    kappa_kind: str
    kappa_params: dict
    experiment: str
    output: str
    delta: float
    k_max: int
    seed: int
    reference: str = "l1"


def parse_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    known = set()                   # (section, key) pairs looked up below

    def get(section, key, cast, default=None, required=False):
        known.add((section, cp.optionxform(key)))
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
        if not cp.has_option(section, key):
            if required:
                raise ConfigError(f"missing key '{key}' in [{section}]")
            return default
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    alpha = get("problem", "alpha", float, required=True)
    T = get("problem", "T", float, required=True)
    tau_c = get("problem", "tau_c", float, required=True)
    tau_f = get("problem", "tau_f", float, required=True)
    level = get("problem", "level", int, default=2)
    epsilon = get("problem", "epsilon", float)
    n_exp = get("problem", "n_exp", int)
    source = get("problem", "source", str, default="smooth")
    if (epsilon is None) == (n_exp is None):
        raise ConfigError("[problem] must set exactly one of epsilon / n_exp")
    if source not in SOURCES:
        raise ConfigError(f"[problem] source must be one of {sorted(SOURCES)}")

    coarse = get("mesh", "coarse_divisions", int, required=True)
    refine = get("mesh", "refinements", int, required=True)

    kind = get("kappa", "kind", str, required=True)
    params = {}
    if kind == "constant":
        params["value"] = get("kappa", "value", float, default=1.0)
    elif kind == "contrast-inclusions":
        params["contrast"] = get("kappa", "contrast", float, required=True)
        params["count"] = get("kappa", "count", int, required=True)
        params["size"] = get("kappa", "size", int, default=2)
    elif kind == "raster-file":
        params["path"] = get("kappa", "path", str, required=True)
    else:
        raise ConfigError(f"[kappa] kind {kind!r} not recognized")

    experiment = get("run", "experiment", str, required=True)
    if experiment not in ("soe-accuracy", "wemp-convergence", "unit-oracles"):
        raise ConfigError(f"[run] experiment {experiment!r} not recognized")
    output = get("run", "output", str, default="out")
    delta = get("run", "delta", float, default=1e-8)
    k_max = get("run", "k_max", int, default=10)
    seed = get("run", "seed", int, default=0)
    reference = get("run", "reference", str, default="l1")
    if reference not in ("l1", "soe"):
        raise ConfigError("[run] reference must be 'l1' or 'soe'")

    # a misspelled or retired key would otherwise silently take its default
    for section in cp.sections():
        if section not in {name for name, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown key '{key}' in [{section}]")

    cfg = ExperimentConfig(alpha=alpha, T=T, tau_c=tau_c, tau_f=tau_f,
                           level=level, epsilon=epsilon, n_exp=n_exp,
                           source=source, coarse_divisions=coarse,
                           refinements=refine, kappa_kind=kind,
                           kappa_params=params, experiment=experiment,
                           output=output, delta=delta, k_max=k_max,
                           seed=seed, reference=reference)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    try:
        _problem(cfg, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.coarse_divisions < 1 or cfg.refinements < 1:
        raise ConfigError("[mesh] divisions and refinements must be >= 1")
    if cfg.k_max < 0:
        raise ConfigError(f"[run] k_max must be >= 0, got {cfg.k_max}")
    if cfg.experiment != "wemp-convergence":
        return
    if cfg.coarse_divisions < 2:
        raise ConfigError("[mesh] wemp-convergence needs coarse_divisions "
                          ">= 2, for an interior coarse vertex")
    # a neighbourhood side has 2 * refinements fine segments, and the
    # level's dyadic breakpoints must land on fine nodes
    if (2 * cfg.refinements) % 2 ** cfg.level:
        raise ConfigError(
            f"[problem] level {cfg.level} needs 2^{cfg.level} to divide "
            f"the {2 * cfg.refinements} fine segments of a neighbourhood "
            f"side; raise [mesh] refinements or lower the level")


def generate_kappa(kind: str, params: dict, mesh, seed: int) -> CoefficientField:
    """Deterministic coefficient fields for the studies."""
    n = mesh.n_fine_per_axis
    if kind == "constant":
        return CoefficientField(np.full(n * n, float(params.get("value", 1.0))))
    if kind == "contrast-inclusions":
        # one square inclusion per seeded-chosen coarse cell, kept one fine
        # cell clear of the coarse skeleton: the surrogate for piecewise
        # regular interior inclusions that the multiscale space is built for
        contrast = float(params["contrast"])
        count = int(params["count"])
        size = int(params.get("size", 2))
        if count < 1 or size < 1:
            raise ValueError("count and size must be positive")
        ref = mesh.refinements_per_coarse
        cdiv = mesh.coarse_divisions
        if size > ref - 2:
            raise ValueError(
                f"inclusion size {size} does not fit inside a coarse cell "
                f"of {ref} fine cells with a 1-cell margin")
        if count > cdiv * cdiv:
            raise ValueError(
                f"{count} inclusions exceed the {cdiv * cdiv} coarse cells")
        rng = np.random.default_rng(seed)
        cells = rng.choice(cdiv * cdiv, size=count, replace=False)
        values = np.ones(n * n)
        for cell in np.sort(cells):
            cx, cy = cell % cdiv, cell // cdiv
            ox = cx * ref + int(rng.integers(1, ref - size))
            oy = cy * ref + int(rng.integers(1, ref - size))
            for dy in range(size):
                row = (oy + dy) * n
                values[row + ox:row + ox + size] = contrast
        return CoefficientField(values)
    if kind == "raster-file":
        fieldv = read_kappa_raster(params["path"])
        if fieldv.values.size != n * n:
            raise ValueError(
                f"raster has {fieldv.values.size} cells, mesh needs {n * n}")
        return fieldv
    raise ValueError(f"unknown kappa kind {kind!r}")


def _build_soe_for(cfg: ExperimentConfig):
    if cfg.n_exp is not None:
        return build_soe_for_terms(cfg.alpha, cfg.tau_f, cfg.n_exp)
    return build_soe(cfg.alpha, cfg.tau_f, cfg.epsilon)


def _problem(cfg: ExperimentConfig, kappa) -> ProblemSpec:
    return ProblemSpec(alpha=cfg.alpha, T=cfg.T, tau_f=cfg.tau_f,
                       tau_c=cfg.tau_c, u0=u0_standard, f=SOURCES[cfg.source],
                       kappa=kappa, level=cfg.level,
                       epsilon=cfg.epsilon if cfg.epsilon is not None else 1.0)


def _reference(cfg, spec, mesh, ops, soe):
    if cfg.reference == "soe":
        return fine_soe_solve(spec, mesh, ops, soe)
    return reference_l1_solve(spec, mesh, ops)


def run_experiment(cfg: ExperimentConfig, assert_mode: bool = False,
                   out_dir: Optional[str] = None) -> int:
    """Dispatch one experiment; returns the process exit code."""
    out = Path(out_dir if out_dir is not None else cfg.output)
    if cfg.experiment == "unit-oracles":
        out.mkdir(parents=True, exist_ok=True)
        failures = run_unit_oracles(out)
        return 2 if (failures and assert_mode) else 0

    # everything in this block validates user-supplied parameters, so a
    # rejected run leaves no output directory behind
    try:
        mesh = build_mesh(cfg.coarse_divisions, cfg.refinements)
        kappa = generate_kappa(cfg.kappa_kind, cfg.kappa_params, mesh, cfg.seed)
        spec = _problem(cfg, kappa)
        soe = _build_soe_for(cfg)
        if cfg.epsilon is not None:
            validate_epsilon(cfg.alpha, cfg.epsilon, cfg.T, spec.n_fine_total)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)

    try:
        if cfg.experiment == "soe-accuracy":
            return _run_soe_accuracy(cfg, spec, mesh, kappa, soe, out,
                                     assert_mode)
        return _run_wemp(cfg, spec, mesh, kappa, soe, out, assert_mode)
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}")
        return 3


def _run_soe_accuracy(cfg, spec, mesh, kappa, soe, out, assert_mode) -> int:
    ops = assemble_operators(mesh, kappa)
    ref = reference_l1_solve(spec, mesh, ops)
    sol = fine_soe_solve(spec, mesh, ops, soe)
    rel_l2, rel_en = relative_errors_percent(sol.states[1:], ref.states[1:], ops)
    write_error_csv(out / "errors.csv", ref.times[1:], rel_l2, rel_en)
    max_l2 = float(rel_l2.max())
    max_en = float(rel_en.max())
    tol = 1.0 if cfg.alpha >= 0.5 else 0.01
    lines = [
        "experiment = soe-accuracy",
        f"alpha = {cfg.alpha}, n_terms = {soe.n_terms}, "
        f"epsilon(bound) = {soe.epsilon:.6g}",
        f"max relL2 = {max_l2:.6g} %",
        f"max relEnergy = {max_en:.6g} %",
        f"threshold = {tol} %",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if assert_mode and max_l2 > tol:
        return 2
    return 0


def _run_wemp(cfg, spec, mesh, kappa, soe, out, assert_mode) -> int:
    pou = build_partition_of_unity(mesh, kappa)
    space = assemble_space(mesh, kappa, pou, cfg.level)
    ops = space.fine_ops
    ctx = build_context(spec, space, soe)
    ref = _reference(cfg, spec, mesh, ops, soe)
    states, timings = wemp_solve(ctx, delta=cfg.delta, k_max=cfg.k_max)

    rows = []
    last_max = None
    for st in states:
        lifted = np.asarray((space.basis @ st.solutions.T).T)
        rel_l2, rel_en = relative_errors_percent(lifted[1:], ref.states[1:], ops)
        for n, (a, b) in enumerate(zip(rel_l2, rel_en), start=1):
            rows.append((st.iteration, n, a, b,
                         st.err if np.isfinite(st.err) else -1.0))
        last_max = float(rel_l2.max())
    write_iteration_csv(out / "iterations.csv", rows)
    with open(out / "timings.csv", "w") as fh:
        fh.write("k,parallel_s,sweep_s,err\n")
        for row in timings:
            fh.write(f"{row['k']},{row.get('parallel_s', 0.0):.6g},"
                     f"{row.get('sweep_s', 0.0):.6g},"
                     f"{row.get('err', float('nan')):.17g}\n")
    lines = [
        f"experiment = {cfg.experiment}",
        f"alpha = {cfg.alpha}, level = {cfg.level}, "
        f"n_terms = {soe.n_terms}, ms dofs = {space.n_columns}",
        f"iterations run = {len(states) - 1}",
        f"max relL2 at final iterate = {last_max:.6g} %",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if assert_mode and last_max > 10.0:
        return 2
    return 0


def run_unit_oracles(out: Path) -> list:
    """Analytic self-checks; returns the list of failed check names."""
    checks = []

    def record(name, ok, detail):
        checks.append((name, bool(ok), detail))

    # scalar time-fractional decay against the Mittag-Leffler series
    alpha, tau = 0.5, 1e-3
    mesh1, ops1 = single_dof_setup(1.0)
    spec1 = ProblemSpec(alpha=alpha, T=1.0, tau_f=tau, tau_c=0.1,
                        u0=lambda x, y: np.ones_like(x), f=None, kappa=None,
                        level=0, epsilon=1.0)
    traj = reference_l1_solve(spec1, mesh1, ops1)
    got = float(traj.states[-1, 0])
    want = mittag_leffler_neg(alpha, 1.0)
    record("scalar-l1-vs-mittag-leffler", abs(got - want) < 5e-3,
           f"got {got:.6f}, series {want:.6f}")

    # coefficient lower bound of the L1 weights
    ok = True
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        c = l1_coefficients(a, 200)
        diffs = c.b[:-1] - c.b[1:]
        n = c.b.size - 1
        bound = a * (1 - a) * (n + 1.0) ** (-a - 1.0)
        ok &= bool(np.all(diffs >= bound * (1 - 1e-12)))
    record("l1-weight-lower-bound", ok, "b_{j-1} - b_j >= bound at n=200")

    # kernel residual certificate at a mid-size build
    soe = build_soe(0.5, 1e-3, 1e-2)
    res = soe_residual(soe, 1.0)
    record("soe-residual-certificate", res <= 10 * soe.epsilon,
           f"max residual {res:.3e} vs 10*eps {10 * soe.epsilon:.3e}")

    # per-step coefficient identity c1 + c2 = e^-x (1 - e^-x) / lambda
    coeffs = step_coefficients(soe, 1e-3)
    lam = soe.rates
    target = np.exp(-lam * 1e-3) * (-np.expm1(-lam * 1e-3)) / lam
    gap = np.max(np.abs(coeffs.c1 + coeffs.c2 - target)
                 / np.maximum(np.abs(target), 1e-300))
    record("step-coefficient-identity", gap < 1e-12, f"max rel gap {gap:.2e}")

    # Haar orthonormality on an 8-segment edge
    coords = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
    W = edge_wavelets(2, coords)
    G = (W * (1.0 / 8.0)) @ W.T
    gap = np.max(np.abs(G - np.eye(W.shape[0])))
    record("edge-wavelet-orthonormality", gap < 1e-12, f"max Gram gap {gap:.2e}")

    lines = []
    failures = []
    for name, ok, detail in checks:
        tag = "ok  " if ok else "FAIL"
        lines.append(f"{tag} {name}: {detail}")
        if not ok:
            failures.append(name)
    text = "\n".join(lines) + "\n"
    (out / "oracles.txt").write_text(text)
    print(text, end="")
    return failures
