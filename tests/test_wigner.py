import math

import numpy as np
import pytest

from landauspec import quadrature as qd
from landauspec import wigner as wg
from landauspec.specfun import hermite_fn


def hermite_u(k):
    return lambda t, k=k: hermite_fn(k, t)


def test_ground_state_is_unit_gaussian():
    x, xi = 0.4, -1.1
    val = wg.wigner_eval(0, 0, x, xi)
    assert val == pytest.approx(np.exp(-(x**2 + xi**2)) / np.pi, rel=1e-14)
    assert val.imag == 0.0


def test_diagonal_at_origin():
    # Psi_kk(0,0) = (-1)^k / pi since L_k(0) = 1
    for k in range(7):
        assert wg.wigner_eval(k, k, 0.0, 0.0) == pytest.approx((-1.0) ** k / np.pi, rel=1e-14)
    assert wg.wigner_diag(1, 0.0, 0.0) == pytest.approx(-1 / np.pi, rel=1e-14)


def test_closed_form_vs_numeric_oracle():
    p = np.linspace(-3, 3, 9)
    X, XI = np.meshgrid(p, p)
    for k in range(6):
        for l in range(6):
            num = wg.wigner_numeric(hermite_u(k), hermite_u(l), X, XI)
            err = np.abs(num - wg.wigner_eval(k, l, X, XI)).max()
            assert err < 1e-9


def test_numeric_conjugate_symmetry():
    x, xi = 0.7, -0.4
    a = wg.wigner_numeric(hermite_u(2), hermite_u(5), x, xi)
    b = wg.wigner_numeric(hermite_u(5), hermite_u(2), x, xi)
    assert a == pytest.approx(np.conj(b), abs=1e-12)


def test_numeric_norm_identity():
    # ||W(u,v)||^2 = (2 pi)^-1 ||u||^2 ||v||^2 for u = psi_2, v = psi_5
    val = qd.integrate_r2(
        lambda x, xi: np.abs(wg.wigner_numeric(hermite_u(2), hermite_u(5), x, xi)) ** 2,
        order=60)
    assert val == pytest.approx(1 / (2 * math.pi), rel=1e-8)


def test_pair_hermitian_symmetry():
    for (k, l) in [(0, 1), (3, 1), (2, 6)]:
        a = wg.wigner_eval(k, l, 0.8, 0.3)
        b = wg.wigner_eval(l, k, 0.8, 0.3)
        assert a == pytest.approx(np.conj(b), abs=1e-15)


def test_angular_factorization():
    # Psi_{k,l}(r cos t, r sin t) e^{i(k-l)t} is real (fixed real radial factor)
    thetas = 2 * np.pi * np.arange(8) / 8 + 0.1
    for r in (0.5, 1.0, 2.0):
        for (k, l) in [(3, 1), (1, 3), (5, 0), (2, 2)]:
            vals = wg.wigner_eval(k, l, r * np.cos(thetas), r * np.sin(thetas))
            sym = vals * np.exp(1j * (k - l) * thetas)
            assert np.abs(sym.imag).max() < 1e-10
            assert np.ptp(sym.real) < 1e-10   # same radial value at every angle


def test_diagonal_consistency():
    p = np.linspace(-2, 2, 7)
    X, XI = np.meshgrid(p, p)
    for k in (0, 1, 4, 9):
        assert np.abs(wg.wigner_eval(k, k, X, XI) - wg.wigner_diag(k, X, XI)).max() < 1e-12


def test_diagonal_unit_mass():
    # int Psi_k = ||psi_k||^2 = 1
    for k in (0, 1, 3, 7):
        val = qd.integrate_r2(lambda x, xi: wg.wigner_diag(k, x, xi), order=60)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_pair_sweep_matches_eval():
    x = np.linspace(-2, 2, 5)[:, None]
    xi = np.linspace(-1, 1, 5)[None, :]
    for d in (0, 1, 3):
        for m, val in wg.wigner_pair_diagonal_sweep(4, x, xi, d):
            assert np.abs(val - wg.wigner_eval(m + d, m, x, xi)).max() < 1e-14
            assert np.abs(np.conj(val) - wg.wigner_eval(m, m + d, x, xi)).max() < 1e-14


def test_diag_kernel_past_seed_underflow():
    # (1/pi) L_500(1800) e^(-900): mpmath at 60 and 120 digits; the seed
    # e^(-900) of an unscaled weighted recurrence underflows to 0
    ref = -0.0078657641122077184
    assert wg.wigner_diag(500, 30.0, 0.0) == pytest.approx(ref, abs=1e-13)
    assert wg.wigner_eval(500, 500, 0.0, 30.0) == pytest.approx(ref, abs=1e-13)


def test_moyal_orthogonality():
    for idx in [(0, 0, 0, 0), (2, 1, 2, 1), (3, 3, 3, 3)]:
        val = wg.moyal_pairing(*idx)
        assert val.real == pytest.approx(1 / (2 * math.pi), abs=1e-9)
        assert abs(val.imag) < 1e-9
    for idx in [(0, 0, 1, 1), (2, 1, 1, 2), (3, 0, 2, 0), (5, 2, 4, 1)]:
        assert abs(wg.moyal_pairing(*idx)) < 1e-9


def test_husimi_closed_form():
    assert wg.husimi_diag(0, 0.0, 0.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    for k in range(6):
        for (x, xi) in [(0.0, 0.0), (1.2, -0.3), (0.4, 2.0)]:
            num = wg.husimi_numeric(k, x, xi)
            assert num == pytest.approx(wg.husimi_diag(k, x, xi), abs=1e-8)


def test_husimi_unit_mass():
    # Gamma-integral oracle: 2 pi int husimi r dr = 1
    for k in (0, 2, 5):
        val = qd.integrate_r2(lambda x, xi: wg.husimi_diag(k, x, xi), order=80)
        assert val == pytest.approx(1.0, abs=1e-10)


def test_fourier_halving_identity():
    lhs, rhs = wg.wigner_fourier_check(0, (0.0, 0.0))
    assert lhs == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert rhs == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    lhs, rhs = wg.wigner_fourier_check(1, (0.0, 0.0))
    assert rhs == pytest.approx(0.5 / math.pi, rel=1e-14)  # -1/2 * Psi_1(0) = 1/(2 pi)
    for k in range(6):
        for w in [(1.0, 0.0), (2.0, -2.0), (0.5, 3.0)]:
            lhs, rhs = wg.wigner_fourier_check(k, w)
            assert abs(lhs - rhs) < 1e-8


def test_fault_injection_breaks_oracle_agreement():
    with wg.inject_fault("pair_phase_sign"):
        num = wg.wigner_numeric(hermite_u(2), hermite_u(0), 0.5, 0.9)
        closed = wg.wigner_eval(2, 0, 0.5, 0.9)
    assert abs(num - closed) > 1e-3


def test_fault_injection_refuses_unknown_names():
    with pytest.raises(ValueError, match="unknown fault"):
        with wg.inject_fault("bogus"):
            pass
