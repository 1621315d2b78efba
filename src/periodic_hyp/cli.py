"""Configuration-driven front end.

The subcommand selects the run. Each one first checks every structural
hypothesis and the certificate (at the first eps, the smallest for
sweep), printing each gate's line as it checks it; validate stops there.
periodic solves for the time-periodic field and writes reports;
stability also perturbs it, marches the initial-value problem and fits
decay rates; sweep runs stability once per eps, one output directory
each, plus an aggregate rate table. The system is one of
``systems.BUILTINS``, and its builder's keywords are its ``system.params``.

Exit codes: 0 success, 2 configuration error, 3 hypothesis failure (every
library error not named below, NormalizationError among them: the
periodic solve refuses an A(0) that is not diagonal), 4 non-convergence
(NonContractionError, ConvergenceError, StepSizeError), 5 I/O failure
(IoError); 2 also for a --seed below 0 or a --jobs below 1. Config files
are YAML (JSON parses as a subset, 1e-6 a number); unknown keys anywhere
are rejected, and so are grid sizes and a max_iter that are not integers
of at least 8 and 1 (32.0 is none), a tol, t_end, record_every or T_star
that is not positive, a negative amplitude, K, eps or perturbation, an
empty eps list, a bool, a quoted or non-finite number, and any system
parameter or gain a builder rejects (``system_model.read_number``).
"""
from __future__ import annotations

import argparse
import functools
import inspect
import logging
import os
import re
import sys
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import boundary as bd
from . import diagnostics as dg
from . import ivp_solver as ivp
from . import periodic_solver as ps
from . import systems
from .errors import (
    BoundaryMapError,
    ConvergenceError,
    DomainError,
    DominanceError,
    HyperbolicityError,
    IoError,
    NonContractionError,
    PeriodicHypError,
    PeriodicityError,
    SignatureError,
    SourceOriginError,
    StepSizeError,
)
from .system_model import (SystemSpec, measured_mu_max, read_number, shift_K,
                           validate_hyperbolicity)

logger = logging.getLogger("periodic_hyp")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5

_HYPOTHESIS_ERRORS = (HyperbolicityError, SignatureError, SourceOriginError,
                      DominanceError, PeriodicityError, BoundaryMapError,
                      DomainError)
_EXIT_LABELS = {EXIT_HYPOTHESIS: "hypothesis failure",
                EXIT_NO_CONVERGENCE: "non-convergence", EXIT_IO: "i/o failure"}


def _exit_code(exc: PeriodicHypError) -> int:
    """Exit code of a library error: 4 for the solver and time-step
    failures, 5 for I/O, 3 for every other (hypothesis) error."""
    if isinstance(exc, (NonContractionError, ConvergenceError, StepSizeError)):
        return EXIT_NO_CONVERGENCE
    if isinstance(exc, IoError):
        return EXIT_IO
    return EXIT_HYPOTHESIS


class ConfigError(Exception):
    pass


_SECTION_KEYS = {
    "system": {"name", "params"},
    "boundary": {"T_star", "gains", "forcing"},
    "grid": {"Nt", "Nx"},
    "solver": {"K", "tol", "max_iter"},
    "experiment": {"eps", "perturbation", "t_end", "record_every"},
}


@dataclass
class RunConfig:
    """Validated configuration of one run; solver holds grid and solver."""

    system_name: str
    system_params: dict
    T_star: float
    gains: dict
    forcing: list
    solver: ps.IterationConfig
    eps: list
    perturbation: float
    t_end: Optional[float]
    record_every: Optional[float]


class _ConfigLoader(yaml.SafeLoader):
    """Safe loading that reads 1e-6 and 1.0e6, strings in YAML 1.1, as floats."""


_ConfigLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def _check_keys(section: str, data, allowed: set) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"'{section}' must be a mapping")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


def _config_errors(fn):
    """fn with a ValueError (a number or value refused) as a ConfigError."""
    @functools.wraps(fn)
    def refusing(*args):
        try:
            return fn(*args)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return refusing


@_config_errors
def load_config(path) -> RunConfig:
    """Parse and validate a YAML/JSON config file: ConfigError on what the
    module docstring lists, every number read by ``read_number`` (each
    harmonic, its keys and numbers, by ``harmonic_signal``, in ``_build``)."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        data = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys("top level", data, set(_SECTION_KEYS))
    for name in ("system", "boundary", "grid", "experiment"):
        if name not in data:
            raise ConfigError(f"missing required section '{name}'")

    for name, allowed in _SECTION_KEYS.items():
        _check_keys(name, data.get(name, {}), allowed)

    sysname = data["system"].get("name")
    if not isinstance(sysname, str) or sysname not in systems.BUILTINS:
        raise ConfigError(
            f"unknown system {sysname!r}; builtins: {sorted(systems.BUILTINS)}")
    builtin = systems.BUILTINS[sysname]
    params = data["system"].get("params", {}) or {}
    _check_keys("system.params", params,
                set(inspect.signature(builtin.system).parameters))
    params = {k: read_number(v, f"system.params.{k}") for k, v in params.items()}

    boundary = data["boundary"]
    T_star = read_number(boundary.get("T_star"), "boundary.T_star", 0, strict=True)
    gains = boundary.get("gains", {}) or {}
    _check_keys("boundary.gains", gains, set(builtin.gains))
    gains = {k: read_number(v, f"boundary.gains.{k}") for k, v in gains.items()}
    forcing = boundary.get("forcing", [])
    if not isinstance(forcing, list):
        raise ConfigError("boundary.forcing must be a list (one entry per family)")
    if not all(isinstance(comp, list) for comp in forcing):
        raise ConfigError("each forcing entry must be a list of harmonics")

    grid, solver = data["grid"], data.get("solver", {})
    iteration = ps.IterationConfig(
        Nt=read_number(grid.get("Nt"), "grid.Nt", 8, integer=True),
        Nx=read_number(grid.get("Nx"), "grid.Nx", 8, integer=True),
        K=None if solver.get("K") is None else read_number(solver["K"], "solver.K", 0),
        tol=read_number(solver.get("tol", 1e-10), "solver.tol", 0, strict=True),
        max_iter=read_number(solver.get("max_iter", 200), "solver.max_iter", 1, integer=True))

    exp = data["experiment"]
    eps = exp.get("eps", [0.01])
    if isinstance(eps, (int, float)):
        eps = [eps]
    elif not isinstance(eps, list):  # a string or mapping would iterate
        raise ConfigError(f"'experiment.eps' must be a number or a list, got {eps!r}")
    if not eps:
        raise ConfigError("'experiment.eps' must hold at least one value")
    eps = [read_number(e, "experiment.eps", 0) for e in eps]
    perturbation = read_number(exp.get("perturbation", 0.0), "experiment.perturbation", 0)
    t_end, record_every = (None if exp.get(k) is None else
                           read_number(exp[k], f"experiment.{k}", 0, strict=True)
                           for k in ("t_end", "record_every"))

    return RunConfig(
        system_name=sysname, system_params=params,
        T_star=T_star, gains=gains, forcing=forcing, solver=iteration,
        eps=eps, perturbation=perturbation,
        t_end=t_end, record_every=record_every,
    )


@_config_errors
def _build(cfg: RunConfig, eps: float) -> tuple:
    """System and boundary of a config, the forcing scaled by eps; a value
    a builder rejects (ValueError) is a configuration error."""
    builtin = systems.BUILTINS[cfg.system_name]
    spec = builtin.system(**cfg.system_params)
    if len(cfg.forcing) > spec.n:
        raise ConfigError(f"forcing has {len(cfg.forcing)} entries; system has {spec.n}")
    forcing = cfg.forcing + [[]] * (spec.n - len(cfg.forcing))
    hs = [systems.harmonic_signal(comp, cfg.T_star, scale=eps) for comp in forcing]
    return spec, builtin.boundary(cfg.gains, hs, cfg.T_star)


def _validate_all(cfg: RunConfig, eps: float) -> tuple:
    """Print each hypothesis gate's line as it is checked; return (ok, spec, bspec)."""
    spec, bspec = _build(cfg, eps)
    print(f"system: {cfg.system_name} (n={spec.n}, m={spec.m})")

    try:
        rep = validate_hyperbolicity(spec)
        print(f"signature: {rep.signature} constant over {rep.samples} samples")
        print(f"mu_max: {rep.mu_max:.6g} "
              f"(time rescaling needed: {'yes' if rep.needs_time_rescaling else 'no'})")
        print(f"A(0) diagonal: {'yes' if rep.a0_diagonal else 'no'} "
              f"(off-diagonal max {rep.a0_offdiag_max:.2e})")
        print(f"F(0) residual: {rep.f0_norm:.2e}")
        ok = rep.ok
    except _HYPOTHESIS_ERRORS as exc:
        print(f"structural hypotheses FAILED: {exc}")
        return False, spec, bspec

    print(f"K_min: {spec.origin.K_min:.6g}, K: {shift_K(spec, cfg.solver.K):.6g}")
    try:
        cert = ps.SweepContext.for_solve(spec, bspec, cfg.solver.K).certificate
    except DominanceError as exc:
        print(f"source dominance FAILED: {exc}")
        return False, spec, bspec
    print(f"M3: {cert.M3:.6g}")
    print(f"theta: {cert.theta:.6g}")
    if cert.theta >= 1.0:
        print("boundary dissipativity FAILED: theta >= 1")
        ok = False

    try:
        forcing_rep = bd.validate_forcing(bspec)
        print(f"forcing C1 norm: {forcing_rep.h_c1_max:.6g}, "
              f"periodicity residual: {forcing_rep.periodicity_residual:.2e}, "
              f"gain at origin: {forcing_rep.max_gain:.6g}")
    except PeriodicityError as exc:
        print(f"forcing periodicity FAILED: {exc}")
        return False, spec, bspec

    state = "PASS" if cert.ok else "FAIL"
    print(f"certificate: theta + K L M3 = {cert.theta + cert.K * cert.L * cert.M3:.6g} "
          f"< 1: {state} (margin {cert.margin:.6g})")
    ok = ok and cert.ok
    print(f"hypotheses: {'PASS' if ok else 'FAIL'}")
    return ok, spec, bspec


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}")


def _solve_and_emit(cfg: RunConfig, spec: SystemSpec, bspec: bd.BoundarySpec,
                    out: Path):
    fld, report = ps.solve_periodic(spec, bspec, cfg.solver)
    _make_out_dir(out)
    try:
        np.savez(out / "field.npz", values=fld.values, T_star=fld.T_star, L=fld.L,
                 t_nodes=fld.t_nodes, x_nodes=fld.x_nodes)
    except OSError as exc:
        raise IoError(f"cannot write {out / 'field.npz'}: {exc}")
    dg.emit_report(report, out / "iteration_report.csv")
    return fld, report


def _cmd_periodic(cfg: RunConfig, spec: SystemSpec, bspec: bd.BoundarySpec, out: Path) -> int:
    fld, report = _solve_and_emit(cfg, spec, bspec, out)
    if not report.converged:
        print(f"not converged after {report.iterations} sweeps")
        return EXIT_NO_CONVERGENCE
    nrm = dg.norms(fld)
    print(f"converged in {report.iterations} sweeps "
          f"(fitted ratio {report.fitted_beta}); |u| = {nrm.c0:.6g}")
    print(f"wrote {out / 'field.npz'} and iteration reports")
    return EXIT_OK


def _stability_cell(cfg: RunConfig, spec: SystemSpec, bspec: bd.BoundarySpec,
                    eps: float, out: Path, seed: int) -> dict:
    """One solve + perturb + march + fit cycle; returns the aggregate row."""
    fld, report = _solve_and_emit(cfg, spec, bspec, out)
    if not report.converged:
        raise NonContractionError("periodic solve did not converge")
    T0 = spec.L * measured_mu_max(spec)
    record_every = cfg.record_every if cfg.record_every else T0 / 4.0
    t_end = cfg.t_end if cfg.t_end else 12.0 * T0
    n_samples = max(1, int(round(t_end / record_every)))
    t_end = n_samples * record_every

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2 * np.pi, spec.n)
    base = ps.extract_initial_data(fld)
    bump = ivp.bump_profile(fld.x_nodes, spec.L)
    u0 = base + cfg.perturbation * bump[:, None] * np.cos(phases)[None, :]

    traj = ivp.run(u0, spec, bspec, t_end=t_end, record_every=record_every)
    # the unperturbed run measures the discretization floor, below which
    # the decay is unobservable: samples near it are kept out of the fits;
    # with perturbation 0 the perturbed run is that run
    floor = traj if np.array_equal(u0, base) else ivp.run(
        base, spec, bspec, t_end=t_end, record_every=record_every)
    srep = ivp.stability_metrics(traj, fld, spec, floor_traj=floor)
    dg.emit_report(srep, out / "stability_report.csv")
    nrm = dg.norms(fld)
    return {
        "eps": eps,
        "fitted_beta": report.fitted_beta,
        "fitted_decay": srep.fitted_decay,
        "fitted_derivative_decay": srep.fitted_derivative_decay,
        "c0": nrm.c0,
        "completed": traj.completed,
        "floor_transit": srep.floor_transit,
    }


def _floor_note(cfg: RunConfig, row: dict) -> str:
    """Why a perturbed run fits no decay, if its T0 sequence stopped on the floor."""
    if cfg.perturbation and row["fitted_decay"] is None and row["floor_transit"] is not None:
        return (f"note: the decay reached the discretization floor at transit "
                f"{row['floor_transit']}: too few samples above it to fit")
    return ""


def _cmd_stability(cfg: RunConfig, spec: SystemSpec, bspec: bd.BoundarySpec,
                   out: Path, seed: int) -> int:
    row = _stability_cell(cfg, spec, bspec, cfg.eps[0], out, seed)
    print(f"stability: fitted per-transit decay {row['fitted_decay']}, "
          f"derivative decay {row['fitted_derivative_decay']}")
    note = _floor_note(cfg, row)
    if note:
        print(note)
    if not row["completed"]:
        print("warning: run stopped before t_end (left the neighborhood)")
    if cfg.perturbation == 0:
        print("warning: perturbation 0: no decay is measured "
              "(experiment.perturbation)")
    return EXIT_OK


def _sweep_worker(args):
    cfg, eps, out, seed = args
    try:
        spec, bspec = _build(cfg, eps)
        row = _stability_cell(cfg, spec, bspec, eps, out, seed)
        return eps, row, EXIT_OK
    except PeriodicHypError as exc:
        return eps, None, _exit_code(exc)


def _cmd_sweep(cfg: RunConfig, out: Path, seed: int, jobs: int) -> int:
    cells = [out / f"eps_{eps:g}" for eps in cfg.eps]
    shared = [str(d) for k, d in enumerate(cells) if d in cells[:k]]
    if shared:  # two cells would write one directory and two rows of rates.csv
        raise ConfigError(f"'experiment.eps' gives two cells the directory {shared[0]}")
    _make_out_dir(out)
    tasks = [(cfg, eps, cell, seed) for eps, cell in zip(cfg.eps, cells)]
    if jobs > 1 and len(tasks) > 1:
        with get_context("spawn").Pool(min(jobs, len(tasks))) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]

    # a failed cell keeps its row: eps, empty fields and its exit code
    header = "eps,fitted_beta,fitted_decay,fitted_derivative_decay,c0,exit_code"
    lines = [header]
    status = EXIT_OK
    for eps, row, code in sorted(results, key=lambda r: r[0]):
        if row is None:
            status = code
            print(f"eps={eps:g}: FAILED (exit {code})")
            row = {"eps": eps}
        else:
            print(f"eps={eps:g}: beta={row['fitted_beta']}, decay={row['fitted_decay']}")
            note = _floor_note(cfg, row)
            if note:
                print(f"eps={eps:g}: {note}")
        values = [row.get(k) for k in header.split(",")[:-1]]
        lines.append(",".join("" if v is None else f"{v:.17g}" for v in values) + f",{code}")
    dg.write_text(out / "rates.csv", "\n".join(lines) + "\n")
    return status


def _int_at_least(least: int):
    """argparse type of an integer flag of at least least (else exit 2)."""
    def integer(text: str) -> int:  # int's ValueError reads "invalid integer value"
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return integer


def run(argv) -> int:
    """Entry point returning the process exit code."""
    level = os.environ.get("PERIODIC_HYP_LOG", "error").lower()
    logging.basicConfig()
    logger.setLevel({"error": logging.ERROR, "info": logging.INFO,
                     "debug": logging.DEBUG}.get(level, logging.ERROR))

    parser = argparse.ArgumentParser(
        prog="periodic-hyp",
        description="time-periodic solutions of 1D hyperbolic balance laws "
                    "driven by periodic dissipative boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes the flags it reads: every run one more than
    # the last (validate < periodic < stability < sweep)
    flags = [("--out", {"default": "periodic_hyp_out"}),
             ("--seed", {"type": _int_at_least(0), "default": 0}),
             ("--jobs", {"type": _int_at_least(1), "default": os.cpu_count() or 1})]
    for k, name in enumerate(("validate", "periodic", "stability", "sweep")):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag, kwargs in flags[:k]:
            p.add_argument(flag, **kwargs)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config)
        ok, spec, bspec = _validate_all(cfg, min(cfg.eps) if args.command == "sweep"
                                        else cfg.eps[0])
        if not ok:
            return EXIT_HYPOTHESIS
        if args.command == "validate":
            return EXIT_OK
        if args.command == "periodic":
            return _cmd_periodic(cfg, spec, bspec, Path(args.out))
        if args.command == "stability":
            return _cmd_stability(cfg, spec, bspec, Path(args.out), args.seed)
        return _cmd_sweep(cfg, Path(args.out), args.seed, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PeriodicHypError as exc:
        code = _exit_code(exc)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
