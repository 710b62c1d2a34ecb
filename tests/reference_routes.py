"""Independent numeric routes that the tests hold the library against.

None of these is reached by a command: each is a plain second way to a
number the library gets by a closed form or a scaled recurrence.  The name
keeps pytest from collecting this module, and nothing under src/ imports it.
"""

from __future__ import annotations

import numpy as np

from landauspec import quadrature, symbols


def radial_gauss_convolution(profile):
    """Numeric radial convolution with the unit Gaussian, as a custom profile.

    (R * G)(s0) = (1/pi) int_0^inf int_0^2pi
                  R(s0 + p^2 - 2 sqrt(s0) p cos t) e^(-p^2) p dt dp,
    radial variable kept as p (the integrand is entire in p, unlike in
    p^2 where a sqrt kink would slow the rule down), by 200 Gauss-Legendre
    nodes on [0, 9]; the e^(-p^2) envelope makes the finite panel exact for
    practical purposes.  Angular average by 512 midpoints (periodic,
    spectrally accurate).  The oracle for `symbols.antiwick_to_weyl`.
    """
    n_theta = 512
    rho, weights = quadrature.gauss_legendre_panel(200, 0.0, 9.0)
    weights = weights * np.exp(-rho * rho) * rho * (2.0 / n_theta)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    cos_t = np.cos(theta)

    def smoothed(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        flat = s.ravel()
        out = np.empty_like(flat)
        chunk = max(1, int(2e6 / (len(rho) * n_theta)))
        for lo in range(0, len(flat), chunk):
            s0 = flat[lo:lo + chunk, None, None]
            args = s0 + rho[None, :, None] ** 2 \
                - 2.0 * np.sqrt(s0) * rho[None, :, None] * cos_t
            vals = profile(args).sum(axis=2)
            out[lo:lo + chunk] = vals @ weights
        return out.reshape(s.shape)

    return symbols.custom(smoothed)


def integrate_halfline(f, order=400, support=None):
    """Estimate the integral of f over [0, inf); f carries its own decay.

    Gauss-Laguerre of `order`, or, for an integrand that vanishes past
    `support`, a Gauss-Legendre panel on [0, support], which keeps the jump
    off the Laguerre rule.
    """
    if support is not None:
        nodes, weights = quadrature.gauss_legendre_panel(order, 0.0, float(support))
    else:
        nodes, weights = quadrature.gauss_laguerre(order)
    return float(np.dot(weights, f(nodes)))


def laguerre(q, nu, xi):
    """Generalized Laguerre polynomial L_q^(nu)(xi) by the plain three-term
    recurrence: unscaled, so it overflows at large degree.  The oracle for
    the log read-off `specfun.laguerre_fn_sq_log`, whose ell_m^(nu)(xi)^2 is
    m! Gamma(nu + 1) / Gamma(m + nu + 1) L_m^(nu)(xi)^2 ell_0^(nu)(xi)^2.
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    l_prev = np.zeros_like(xi)
    l_cur = np.ones_like(xi)
    for j in range(q):
        l_next = ((2.0 * j + nu + 1.0 - xi) * l_cur - (j + nu) * l_prev) / (j + 1.0)
        l_prev, l_cur = l_cur, l_next
    return l_cur if l_cur.ndim else float(l_cur)
