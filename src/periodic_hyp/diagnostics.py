"""Norms, exponential weight profiles, the smallness certificate, residuals,
second-derivative measurements, and deterministic report serialization."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .characteristics import Field, _padded
from .errors import IoError
from .system_model import SystemSpec, check_dominance


@dataclass
class FieldNorms:
    """Sup norm and first-derivative-inclusive norm of a grid field."""

    c0: float
    c1: float


@dataclass
class WeightProfile:
    """Exponential spatial weights turning the diagonal source term into
    pure decay along characteristics.

    Left-moving rows carry W(x) = exp(g_ii (L - x)), right-moving rows
    W(x) = exp(-g_ii x); every profile is >= 1, equals 1 at its family's
    inflow-opposite end, and is bounded by M3.
    """

    W: Sequence[Callable]
    M3: float
    diag: np.ndarray
    L: float
    m: int


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


def weights(gtilde: np.ndarray, L: float, n: int, m: int) -> WeightProfile:
    """Build the weight profile of a dominated source linearization.

    Raises DominanceError when the diagonal signs or strict dominance fail.
    """
    gtilde = np.asarray(gtilde, dtype=float)
    check_dominance(gtilde, m)
    diag = np.diag(gtilde).copy()

    def make(i):
        gii = diag[i]
        if i < m:
            return lambda x: np.exp(gii * (L - np.asarray(x, dtype=float)))
        return lambda x: np.exp(-gii * np.asarray(x, dtype=float))

    W = [make(i) for i in range(n)]
    endpoint = [W[i](0.0) if i < m else W[i](L) for i in range(n)]
    M3 = float(np.max(endpoint)) if n else 1.0
    return WeightProfile(W=W, M3=M3, diag=diag, L=L, m=m)


def smallness_certificate(theta: float, K: float, L: float, M3: float) -> Certificate:
    """ok = theta + K * L * M3 < 1; margin is the distance to failure."""
    theta, K, L, M3 = float(theta), float(K), float(L), float(M3)
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
    ut = fld.time_derivative_grid()
    dtdx_grid = (ut[:, 2:] - ut[:, :-2]) / (2 * dx)
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
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def write_text(path: Path, text: str) -> None:
    """Write a text file; raises IoError on failure."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def emit_report(report, fmt: str, destination) -> None:
    """Serialize a report deterministically.

    CSV is for series (iteration deltas: "iteration,delta"; stability
    samples: "t,phi,dphi"), each with a JSON sidecar of the report's other
    fields; JSON is for scalar records. Field order is fixed by the dataclass, reals
    carry 17 significant digits. Raises IoError on write failure.
    """
    path = Path(destination)
    if fmt == "json":
        write_text(path, json.dumps(_jsonable(report), indent=2) + "\n")
        return
    if fmt != "csv":
        raise ValueError("format must be 'csv' or 'json'")

    if hasattr(report, "deltas"):
        header, series = "iteration,delta", ("deltas", "deltas_c1")
        rows = [f"{l},{_fmt(d)}" for l, d in enumerate(np.asarray(report.deltas), start=1)]
    elif hasattr(report, "phi_samples"):
        header, series = "t,phi,dphi", ("phi_samples", "dphi_samples")
        dphi = dict(report.dphi_samples)
        rows = [f"{_fmt(t)},{_fmt(phi)},{_fmt(dphi.get(t, float('nan')))}"
                for t, phi in report.phi_samples]
    else:
        raise ValueError("CSV emission is defined for series reports only")
    write_text(path, "\n".join([header] + rows) + "\n")
    scalars = {k: v for k, v in _jsonable(report).items() if k not in series}
    write_text(path.with_suffix(".json"), json.dumps(scalars, indent=2) + "\n")


def parse_report(path) -> dict:
    """Read back a JSON report into plain Python values."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
