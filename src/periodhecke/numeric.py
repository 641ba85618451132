"""Floating-point verification layer: the weight-2s slash action, the
three-term equation and its transfer-operator variant (one helper
evaluates their terms; the residuals and verify's scale fold them), the
Laplace eigenfunction kernel, a finite-difference Laplacian, and
quadrature of the Green's-type 1-form pairing two eigenfunctions.

Powers are principal-branch throughout; the precondition checks keep every
base strictly positive, so there is no branch ambiguity.  Scalar function
handles map a positive real (or a point of the upper half plane) to a
complex number; vector handles return a sequence of component values.
"""

from __future__ import annotations

from . import _EXPORTS
from .exact_core import IntMatrix2, S, T, T_PRIME
from .permutation import rho

__all__ = list(_EXPORTS["numeric"])

# The words whose permutations the residuals apply: T^-1 and T'^-1, and
# T'^-1 * (0 1; 1 0), the determinant -1 word of the transfer variant.
_T_INVERSE = T.inverse()
_T_PRIME_INVERSE = T_PRIME.inverse()
_TRANSFER_PERM_WORD = IntMatrix2(0, 1, 1, -1)
ETA_FD_STEP = 1e-5


def slash_eval(f, mat, s, zeta):
    """(det)^s (c*zeta+d)^(-2s) f((a*zeta+b)/(c*zeta+d)) for a matrix with
    nonnegative entries, positive determinant, and zeta > 0."""
    det = mat.det
    if det <= 0:
        raise ValueError("slash action needs positive determinant, got %d" % det)
    if min(mat.key) < 0:
        raise ValueError("slash action needs nonnegative entries, got %r" % (mat,))
    if not zeta > 0:
        raise ValueError("slash action is evaluated on (0, infinity)")
    denom = mat.c * zeta + mat.d
    return det ** s * denom ** (-2 * s) * f((mat.a * zeta + mat.b) / denom)


def constant_lift(f, mu):
    """The vector handle whose mu components all equal the scalar handle f."""
    return lambda t: [f(t)] * mu


def cusp_solution(table, s):
    """The vector handle psi(z) = w - z^(-2s) rho(S) w, where w weights each
    orbit of rho(T) (each cusp) by 1 + the smallest coset index in it.

    Each orbit's indicator gives a solution of the three-term equation for
    every s, so psi is one too; the distinct weights make its components
    differ, so a misplaced column of an operator changes the image.  An
    identically zero psi (s = 0 at level 1) raises ValueError.
    """
    image = rho(table, T).image
    w = [0.0] * table.mu
    for start in range(table.mu):
        i = start
        while not w[i]:
            w[i] = start + 1.0
            i = image[i]
    folded = rho(table, S).apply(w)
    if s == 0 and folded == w:
        raise ValueError("the reference solution vanishes at s = 0, so there is nothing to check")

    def psi(z):
        factor = z ** (-2 * s)
        return [a - factor * b for a, b in zip(w, folded)]

    return psi


def _residual_and_terms(psi, table, s, zeta, sign=0):
    """The residual psi(zeta) - rho(T^-1) psi(zeta+1) - c rho(W) psi(x) at
    zeta > 0 and the (psi(zeta), rho(T^-1) psi(zeta+1), rho(W) psi(x), c) it
    folds, for the three-term equation (sign 0) or the transfer variant."""
    if not zeta > 0:
        raise ValueError("residuals are evaluated on (0, infinity)")
    if sign:
        word, c, x = _TRANSFER_PERM_WORD, sign * zeta ** (-2 * s), (zeta + 1) / zeta
    else:
        word, c, x = _T_PRIME_INVERSE, (zeta + 1) ** (-2 * s), zeta / (zeta + 1)
    base, shifted = psi(zeta), rho(table, _T_INVERSE).apply(psi(zeta + 1))
    moved = rho(table, word).apply(psi(x))
    return [a - b - c * v for a, b, v in zip(base, shifted, moved)], (base, shifted, moved, c)


def three_term_residual(psi, table, s, zeta):
    """Componentwise defect of the three-term equation at zeta > 0:

        psi(z) - rho(T^-1) psi(z+1) - (z+1)^(-2s) rho(T'^-1) psi(z/(z+1)).

    Zero for period(-like) functions with spectral parameter s.
    """
    return _residual_and_terms(psi, table, s, zeta)[0]


def transfer_residual(psi, table, s, sign, zeta):
    """Defect of the transfer-operator variant of the three-term equation,

        psi(z) - rho(T^-1) psi(z+1) -+ z^(-2s) rho(T'^-1 M) psi((z+1)/z)

    with M = (0 1; 1 0); sign is -1 for odd solutions, +1 for even ones."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _residual_and_terms(psi, table, s, zeta, sign)[0]


def r_zeta(z, zeta):
    """The kernel y/((x - zeta)^2 + y^2) for z = x + iy in the upper half
    plane and real zeta; its s-th power is a Laplace eigenfunction with
    eigenvalue s(1-s)."""
    if not z.imag > 0:
        raise ValueError("z must lie in the upper half plane")
    return z.imag / ((z.real - zeta) ** 2 + z.imag ** 2)


def laplace_fd(f, z, h):
    """-y^2 (d_xx + d_yy) f at z by second-order central differences with
    step h; requires 0 < h < Im z."""
    if not 0 < h < z.imag:
        raise ValueError("step must satisfy 0 < h < Im z")
    second = (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h ** 2
    return -(z.imag ** 2) * second


def _partials(f, z, h):
    dx = (f(z + h) - f(z - h)) / (2 * h)
    dy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    return dx, dy


def eta_line_integral(u, v, path, steps):
    """Composite-midpoint quadrature of the 1-form

        (v d_y u - u d_y v) dx + (u d_x v - v d_x u) dy

    along the polyline through the given vertices, with `steps` panels per
    segment and central differences of step ETA_FD_STEP, so the whole path
    must stay that far inside the upper half plane.  The form is closed
    when u and v are Laplace eigenfunctions with equal eigenvalues.
    """
    vertices = list(path)
    if len(vertices) < 2:
        raise ValueError("path needs at least two vertices")
    if steps < 1:
        raise ValueError("steps must be positive")
    if min(z.imag for z in vertices) <= ETA_FD_STEP:
        raise ValueError("path must stay strictly above the real axis")
    total = 0.0
    for start, end in zip(vertices, vertices[1:]):
        dz = (end - start) / steps
        for k in range(steps):
            z = start + (k + 0.5) * dz
            ux, uy = _partials(u, z, ETA_FD_STEP)
            vx, vy = _partials(v, z, ETA_FD_STEP)
            uz, vz = u(z), v(z)
            total += (vz * uy - uz * vy) * dz.real + (uz * vx - vz * ux) * dz.imag
    return total


def apply_hecke_numeric(op, psi, s, zeta):
    """Evaluate a HeckeOperatorMatrix on a vector handle at zeta > 0: psi
    is slashed once by each matrix B, and row j gathers component f_B[j] of
    it.  The operator's constructor guarantees that every B lies in S_m, so
    det B = m, the entries are nonnegative and the slash needs no check per
    matrix; use slash_eval for any other matrix."""
    if not zeta > 0:
        raise ValueError("slash action is evaluated on (0, infinity)")
    scale = op.m ** s
    out = [0j] * op.mu
    for mat, image in op.columns:
        denom = mat.c * zeta + mat.d
        factor = scale * denom ** (-2 * s)
        values = psi((mat.a * zeta + mat.b) / denom)
        for j, i in enumerate(image):
            if i is not None:
                out[j] += factor * values[i]
    return out


def hecke_image(op, psi, s):
    """The vector handle zeta -> apply_hecke_numeric(op, psi, s, zeta)."""
    return lambda zeta: apply_hecke_numeric(op, psi, s, zeta)
