"""Norms, the smallness certificate, residuals, second-derivative
measurements, and deterministic report serialization."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .characteristics import Field, _padded, _x_difference
from .errors import IoError
from .system_model import SystemSpec, read_number


@dataclass
class FieldNorms:
    """Sup norm and first-derivative-inclusive norm of a grid field."""

    c0: float
    c1: float


@dataclass
class Certificate:
    """The coupled boundary/source smallness record: ok iff
    theta + K * L * M3 < 1."""

    theta: float
    K: float
    L: float
    M3: float
    ok: bool
    margin: float


@dataclass
class RegularityReport:
    """Sup norms of the three second differences of a grid field."""

    d2t: float
    dtdx: float
    d2x: float


def norms(fld: Field) -> FieldNorms:
    """c0 = sup |u|; c1 adds the larger of the two first-derivative sups."""
    c0 = float(np.abs(fld.values).max()) if fld.values.size else 0.0
    dgrid = max(float(np.abs(fld.time_derivative_grid()).max()),
                float(np.abs(fld.space_derivative_grid()).max()))
    return FieldNorms(c0=c0, c1=c0 + dgrid)


def smallness_certificate(theta: float, K: float, L: float, M3: float) -> Certificate:
    """ok = theta + K * L * M3 < 1; margin is the distance to failure.
    Each input is read by ``read_number``: a bool, str or non-finite
    value raises ValueError."""
    theta, K, L, M3 = (read_number(v, name) for v, name in
                       ((theta, "theta"), (K, "K"), (L, "L"), (M3, "M3")))
    if min(theta, K, L, M3) < 0:
        raise ValueError("certificate inputs must be nonnegative")
    margin = 1.0 - theta - K * L * M3
    return Certificate(theta=theta, K=K, L=L, M3=M3,
                       ok=margin > 0.0, margin=margin)


def pde_residual(fld: Field, spec: SystemSpec) -> float:
    """Sup over the interior grid of |u_t + A(u) u_x - F(u)|.

    2nd-order stencils, periodic in t; the x endpoints are excluded (their
    one-sided stencils would mix boundary-condition error into the
    truncation measurement).
    """
    ut = fld.time_derivative_grid()[:, 1:-1]
    ux = fld.space_derivative_grid()[:, 1:-1]
    u = fld.values[:, 1:-1]
    res = ut + spec.A_times(u, ux) - spec.F_at(u)
    return float(np.abs(res).max())


def regularity_measurements(fld: Field) -> RegularityReport:
    """Second-difference sup norms: d2t, dtdx, d2x.

    Periodic wrap in t; interior-only stencils in x (one cell cropped at
    each end to avoid one-sided second-difference noise).
    """
    v, p = fld.values, _padded(fld.values)
    dt, dx = fld.dt, fld.dx
    d2t_grid = (p[2:fld.Nt + 2] - 2 * v + p[:fld.Nt]) / dt**2
    d2x_grid = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / dx**2
    dtdx_grid = _x_difference(fld.time_derivative_grid(), dx)[:, 1:-1]
    return RegularityReport(
        d2t=float(np.abs(d2t_grid[:, 1:-1]).max()),
        dtdx=float(np.abs(dtdx_grid).max()),
        d2x=float(np.abs(d2x_grid).max()),
    )


def regularity_ratio(coarse: RegularityReport, fine: RegularityReport) -> float:
    """Worst-case ratio of the three measurements between two resolutions.

    Values near 1 indicate grid-uniform boundedness of the second
    derivatives; blow-up under refinement would push the ratio up.
    """
    ratios = []
    for name in ("d2t", "dtdx", "d2x"):
        a, b = getattr(coarse, name), getattr(fine, name)
        if max(a, b) <= 1e-300:
            continue
        ratios.append(max(a, b) / max(min(a, b), 1e-300))
    return float(max(ratios)) if ratios else 1.0


def _jsonable(obj):
    # JSON keys are lowercase snake case regardless of the field spelling
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name.lower(): _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj  # a Python scalar or None; json refuses any other type


def write_text(path: Path, text: str) -> None:
    """Write a text file; raises IoError on failure."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def emit_report(report, destination) -> None:
    """Write a series report deterministically: its series as CSV at destination
    ("iteration,delta,delta_c1" for iteration deltas, "t,phi,dphi" for stability
    samples), its other fields as a JSON sidecar (suffix .json), in dataclass
    order, keys lowercase snake case, reals with 17 significant digits.
    Raises ValueError for a record with no series, IoError on write failure."""
    path = Path(destination)
    if hasattr(report, "deltas"):
        header, series = "iteration,delta,delta_c1", ("deltas", "deltas_c1")
        rows = [f"{l},{_fmt(d)},{_fmt(d1)}" for l, (d, d1)
                in enumerate(zip(report.deltas, report.deltas_c1), start=1)]
    elif hasattr(report, "phi_samples"):
        header, series = "t,phi,dphi", ("phi_samples", "dphi_samples")
        dphi = dict(report.dphi_samples)
        rows = [f"{_fmt(t)},{_fmt(phi)},{_fmt(dphi.get(t, float('nan')))}"
                for t, phi in report.phi_samples]
    else:
        raise ValueError("emit_report takes series reports only")
    write_text(path, "\n".join([header] + rows) + "\n")
    scalars = {k: v for k, v in _jsonable(report).items() if k not in series}
    write_text(path.with_suffix(".json"), json.dumps(scalars, indent=2) + "\n")


def parse_report(path) -> dict:
    """Read back a JSON report into plain Python values."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
