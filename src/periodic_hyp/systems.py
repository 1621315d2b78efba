"""Built-in example systems and their boundary builders.

Three vetted configurations parameterize the library's experiment surface:

* ``linear_damped_scalar``: one right-moving component with constant speed
  and linear damping, forced at x = 0. Its periodic solution has the
  closed form h(t - x/lam) * exp(-(c/lam) x).
* ``linear_reflect_2x2``: speeds -s and +s, no source, reflection gain k
  at both ends. With period 2L/s the reflections align and the steady
  amplitude is the geometric series of k^2.
* ``quasilinear_euler_damping``: the two Riemann-type invariants of 1D
  isentropic gas flow with a linear momentum drag, written as deviations
  from a still state with base sound speed c0. The coefficient matrix is
  diag(v - c, v + c) with v = (u1 + u2)/2 and c = c0 + (g - 1)(u2 - u1)/4.
  Its spec supplies ``AF``, so the solvers compute v and c once per
  evaluation of both coefficients.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .boundary import BoundarySpec
from .system_model import SystemSpec, read_number


def linear_damped_scalar(lam: float = 1.0, c: float = 0.5, L: float = 1.0,
                         domain_radius: float = 0.1) -> SystemSpec:
    """u_t + lam u_x = -c u with lam > 0 (single right-moving family)."""
    read_number(lam, "lam", 0, strict=True)
    read_number(c, "c")

    def A(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1] + (1,), lam)

    def F(u):
        return -c * np.asarray(u, dtype=float)

    return SystemSpec(n=1, m=0, A=A, F=F, gradF=lambda u: np.array([[-c]]),
                      domain_radius=domain_radius, L=L)


def linear_reflect_2x2(speed: float = 1.0, L: float = 1.0,
                       domain_radius: float = 0.1) -> SystemSpec:
    """Source-free pair with speeds -speed and +speed, speed > 0."""
    read_number(speed, "speed", 0, strict=True)
    D = np.array([-speed, speed])

    def A(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(D, u.shape[:-1] + (2,)).copy()

    def F(u):
        return np.zeros(np.shape(u))

    return SystemSpec(n=2, m=1, A=A, F=F, gradF=lambda u: np.zeros((2, 2)),
                      domain_radius=domain_radius, L=L)


def quasilinear_euler_damping(gamma: float = 2.0, a: float = 0.5,
                              base_c: float = 1.25, L: float = 1.0,
                              domain_radius: float = 0.05) -> SystemSpec:
    """Riemann-invariant deviations of damped isentropic flow near rest.

    u1 rides v - c (left-moving near rest), u2 rides v + c; both source
    terms are the drag -a v. base_c above 1 + O(domain_radius) keeps all
    speeds above 1 in modulus so no time rescaling is needed.
    """
    read_number(gamma, "gamma", 1, strict=True)
    read_number(a, "a", 0)
    read_number(base_c, "base_c", 0, strict=True)

    slope = 0.25 * (gamma - 1.0)

    def vel_sound(u):
        u = np.asarray(u, dtype=float)
        u1, u2 = u[..., 0], u[..., 1]
        return 0.5 * (u1 + u2), base_c + slope * (u2 - u1)

    def A_of(v, c):
        out = np.empty(v.shape + (2,))
        out[..., 0] = v - c
        out[..., 1] = v + c
        return out

    def F_of(v):
        out = np.empty(v.shape + (2,))
        out[..., 0] = out[..., 1] = -a * v
        return out

    def AF(u):
        v, c = vel_sound(u)
        return A_of(v, c), F_of(v)

    return SystemSpec(n=2, m=1, A=lambda u: A_of(*vel_sound(u)),
                      F=lambda u: F_of(vel_sound(u)[0]), AF=AF,
                      gradF=lambda u: np.full((2, 2), -a / 2.0),
                      domain_radius=domain_radius, L=L)


def harmonic_signal(harmonics, T_star: float, scale: float = 1.0):
    """Sum of sinusoids: sum_k amp * sin(2 pi harm t / T_star + phase).

    harmonics is a sequence of dicts with keys amplitude (>= 0), harmonic
    and phase (the latter two optional). Returns a vectorized callable.
    Raises ValueError, in the wording of the CLI's config errors, for a
    harmonic that is not a dict, one with another key or without an
    amplitude, and for a number ``read_number`` refuses.
    """
    read_number(T_star, "T_star", 0, strict=True)
    read_number(scale, "scale")
    terms = []
    for h in harmonics:
        if not isinstance(h, dict):
            raise ValueError("'forcing harmonic' must be a mapping")
        unknown = set(h) - {"amplitude", "harmonic", "phase"}
        if unknown:
            raise ValueError(f"unknown keys in 'forcing harmonic': {sorted(unknown)}")
        if "amplitude" not in h:
            raise ValueError("each harmonic needs an amplitude")
        terms.append((read_number(h["amplitude"], "amplitude", 0),
                      read_number(h.get("harmonic", 1), "harmonic"),
                      read_number(h.get("phase", 0.0), "phase")))

    def signal(t):
        t = np.asarray(t, dtype=float)
        if not terms:
            return np.zeros_like(t)
        out = 0.0
        for amp, harm, phase in terms:
            out = out + scale * amp * np.sin(2 * np.pi * harm * t / T_star + phase)
        return out

    return signal


def zero_signal(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def scalar_inflow_boundary(h, T_star: float) -> BoundarySpec:
    """Pass-through inflow for the scalar system: u(t, 0) = h(t)."""
    return BoundarySpec(
        left_maps=[lambda hv, u: hv],
        right_maps=[],
        h=[h],
        T_star=T_star,
    )


def reflection_boundary(k: float, h1, h2, T_star: float) -> BoundarySpec:
    """Gain-k reflection at both ends of a two-family system.

    x = 0: u2 = h2(t) + k u1;  x = L: u1 = h1(t) + k u2.
    """
    return two_gain_boundary(k, k, h1, h2, T_star)


def two_gain_boundary(k_left: float, k_right: float, h1, h2,
                      T_star: float) -> BoundarySpec:
    """Independent reflection gains: k_left acts at x = 0, k_right at x = L."""
    read_number(k_left, "k_left")
    read_number(k_right, "k_right")
    return BoundarySpec(
        left_maps=[lambda hv, u: hv + k_left * u[..., 0]],
        right_maps=[lambda hv, u: hv + k_right * u[..., 0]],
        h=[h1, h2],
        T_star=T_star,
    )


class Builtin(NamedTuple):
    """A built-in system: its builder, whose keywords are its parameters,
    its gain names, and ``boundary(gains, signals, T_star)``, which builds
    its boundary from a dict of gains (an absent one is 0) and one forcing
    signal per family."""
    system: Callable[..., SystemSpec]
    gains: tuple
    boundary: Callable[..., BoundarySpec]


BUILTINS = {
    "linear_damped_scalar": Builtin(
        linear_damped_scalar, (),
        lambda gains, hs, T_star: scalar_inflow_boundary(hs[0], T_star)),
    "linear_reflect_2x2": Builtin(
        linear_reflect_2x2, ("k",),
        lambda gains, hs, T_star: reflection_boundary(gains.get("k", 0.0), *hs, T_star)),
    "quasilinear_euler_damping": Builtin(
        quasilinear_euler_damping, ("k_left", "k_right"),
        lambda gains, hs, T_star: two_gain_boundary(
            gains.get("k_left", 0.0), gains.get("k_right", 0.0), *hs, T_star)),
}
