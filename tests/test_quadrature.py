import functools
import math

import numpy as np
import pytest

from landauspec import quadrature as qd
from landauspec.specfun import laguerre_fn_iter
from reference_routes import integrate_halfline


def gauss_hermite_moment(k):
    # int x^(2k) e^{-x^2} dx = (2k-1)!! sqrt(pi) / 2^k
    return math.sqrt(math.pi) * math.prod(range(1, 2 * k, 2)) / 2.0 ** k


def _hermite_classical(order):
    """Nodes and the classical weights of exp(-x^2): the rule's weights times the envelope."""
    nodes, weights = qd.gauss_hermite(order)
    return nodes, weights * np.exp(-nodes * nodes)


def test_gauss_hermite_order_one():
    nodes, weights = _hermite_classical(1)
    assert nodes.tolist() == [0.0]
    assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)


@functools.lru_cache(maxsize=None)
def _laguerre_rule(order, alpha):
    """The zeros of L_order^(alpha) and their Christoffel weights for int f dt:
    the public rule at alpha = 0, `_laguerre_nodes` and the same sweep otherwise."""
    if alpha == 0.0:
        return qd.gauss_laguerre(order)
    nodes = qd._laguerre_nodes(order, alpha)
    return nodes, qd._christoffel_weights(laguerre_fn_iter(alpha, nodes, order - 1))


def _laguerre_classical(order, alpha=0.0):
    """Nodes and the classical weights of t^alpha exp(-t): the weights times the envelope."""
    nodes, weights = _laguerre_rule(order, alpha)
    return nodes, weights * np.exp(alpha * np.log(nodes) - nodes)


def test_gauss_hermite_second_moment_order_two():
    nodes, weights = _hermite_classical(2)
    val = float(np.dot(weights, nodes**2))
    assert val == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-14)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gauss_hermite_polynomial_exactness(order):
    nodes, weights = _hermite_classical(order)
    for deg in range(0, 2 * order, 3):
        val = float(np.dot(weights, nodes ** deg))
        if deg % 2:
            assert abs(val) < 1e-12 * gauss_hermite_moment(deg // 2 + 1)
        else:
            assert val == pytest.approx(gauss_hermite_moment(deg // 2), rel=1e-12)


def test_gauss_laguerre_order_one():
    nodes, weights = _laguerre_classical(1)
    assert nodes[0] == pytest.approx(1.0, rel=1e-15)
    assert weights[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_gauss_laguerre_factorial_moments(order):
    nodes, weights = _laguerre_classical(order)
    for k in range(0, 2 * order, 5):
        val = float(np.dot(weights, nodes ** k))
        assert val == pytest.approx(math.factorial(k), rel=1e-12)


def test_gauss_laguerre_generalized_moments():
    # int t^(alpha+k) e^-t dt = Gamma(alpha + k + 1), on the nodes of L_24^(alpha)
    alpha = 2.5
    nodes, weights = _laguerre_classical(24, alpha)
    for k in range(0, 20, 3):
        val = float(np.dot(weights, nodes ** k))
        assert val == pytest.approx(math.gamma(alpha + k + 1.0), rel=1e-12)


def test_gauss_laguerre_flat_weights_high_order():
    # the classical weights underflow by order ~200; the rule's weights keep working
    nodes, weights = qd.gauss_laguerre(1500)
    assert np.all(np.isfinite(weights)) and np.all(weights > 0)
    val = float(np.dot(weights, np.exp(-nodes)))
    assert val == pytest.approx(1.0, rel=1e-12)


def test_gauss_hermite_flat_weights_high_order():
    nodes, weights = qd.gauss_hermite(2000)
    assert np.all(np.isfinite(weights)) and np.all(weights > 0)
    val = float(np.dot(weights, np.exp(-nodes**2)))
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("build", [
    lambda: qd.gauss_hermite(9), lambda: qd.gauss_laguerre(9),
    lambda: qd.gauss_legendre_panel(9, 0.0, 2.0),
    lambda: qd.support_rule([0.5, 1.0, 2.0], 40, 16, math.inf),
    lambda: qd.support_rule([], 40, 16, math.inf)],
    ids=["hermite", "laguerre", "legendre", "support", "support-tail"])
def test_every_builder_returns_read_only_nodes_and_weights(build):
    nodes, weights = build()
    for a in (nodes, weights):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert nodes.size == weights.size > 0
    # the refused writes left the cached rules as they were
    again = build()
    assert np.array_equal(again[0], nodes) and np.array_equal(again[1], weights)


def _laguerre_nodes_by_eigensolver(order, alpha):
    from scipy.linalg import eigh_tridiagonal
    diag = 2.0 * np.arange(order) + alpha + 1.0
    if order == 1:
        return diag
    j = np.arange(1, order)
    return eigh_tridiagonal(diag, np.sqrt(j * (j + alpha)), eigvals_only=True)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 3.0])
def test_gauss_laguerre_matches_eigensolver(alpha):
    # nodes against the Golub-Welsch eigenvalues, Christoffel weights against
    # the same sweep at those eigenvalues.  eigh_tridiagonal itself errs by
    # up to 1.1e-13 (1 + x) at order 2900 (alpha = 0.5, measured against
    # extended-precision Newton), hence 1.5e-13 there.  The weights follow
    # those node errors: up to 1.7e-13 absolute at the smallest nodes and
    # 9e-13 relative at the outermost ones (x ~ 5000)
    for order in (1, 2, 3, 24, 88, 432, 1500, 2900):
        nodes, weights = _laguerre_rule(order, alpha)
        ref = _laguerre_nodes_by_eigensolver(order, alpha)
        tol = 1.5e-13 if order > 1500 else 1e-13
        assert np.all(np.abs(nodes - ref) <= tol * (1.0 + ref)), order
        ref_weights = qd._christoffel_weights(laguerre_fn_iter(alpha, ref, order - 1))
        assert np.all(np.abs(weights - ref_weights) <= 5e-13 + 2e-12 * ref_weights), order


def _mp_laguerre_zero(order, alpha, x):
    # Newton on the three-term recurrence at 40 digits, from x
    import mpmath as mp
    with mp.workdps(40):
        x, a = mp.mpf(x), mp.mpf(alpha)
        for _ in range(3):
            prev, cur = mp.mpf(1), 1 + a - x
            for j in range(2, order + 1):
                prev, cur = cur, ((2 * j - 1 + a - x) * cur - (j - 1 + a) * prev) / j
            x -= x * cur / (order * cur - (order + a) * prev)
        return float(x)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 3.0])
def test_gauss_laguerre_nodes_against_mpmath(alpha):
    # the smallest nodes keep full relative precision: eigensolvers (and a
    # ratio recurrence in L_j / L_(j-1)) lose about 1e-13 absolute there
    order = 2900
    nodes = _laguerre_rule(order, alpha)[0]
    for i in (0, 1, 2, 1450, order - 1):
        ref = _mp_laguerre_zero(order, alpha, nodes[i])
        assert abs(nodes[i] - ref) <= 1e-15 * (1.0 + ref), i


def test_gauss_laguerre_large_alpha_moments():
    # the WKB guesses carry the alpha^2 / x^2 term, so large alpha converges too
    for alpha in (10.0, 100.0):
        nodes, weights = _laguerre_classical(30, alpha)
        for k in range(0, 40, 7):
            val = float(np.dot(weights, nodes ** k))
            assert val == pytest.approx(math.exp(math.lgamma(alpha + k + 1.0)), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 64, 96, 2000])
def test_gauss_hermite_matches_eigensolver(order):
    from scipy.linalg import eigh_tridiagonal
    nodes = qd.gauss_hermite(order)[0]
    if order == 1:
        ref = np.zeros(1)
    else:
        ref = eigh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1, order) / 2.0),
                               eigvals_only=True)
    assert np.all(np.abs(nodes - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    assert np.array_equal(nodes, -nodes[::-1])


def test_order_validation():
    with pytest.raises(ValueError):
        qd.gauss_hermite(0)
    with pytest.raises(ValueError):
        qd.gauss_hermite(qd.MAX_ORDER + 1)
    with pytest.raises(ValueError):
        qd.gauss_laguerre(0)
    with pytest.raises(ValueError):
        qd.gauss_legendre_panel(10, 1.0, 1.0)


def test_integrate_r2():
    val = qd.integrate_r2(lambda x, xi: np.exp(-(x**2 + xi**2)) / np.pi, order=40)
    assert val == pytest.approx(1.0, abs=1e-12)
    # odd integrand killed by node symmetry (up to summation roundoff)
    val = qd.integrate_r2(lambda x, xi: x * np.exp(-(x**2 + xi**2)), order=40)
    assert abs(val) < 1e-15


def test_integrate_r2_moyal_norm():
    # ||Psi_0||^2 = 1/(2 pi)
    from landauspec.wigner import wigner_diag
    val = qd.integrate_r2(lambda x, xi: wigner_diag(0, x, xi) ** 2, order=40)
    assert val == pytest.approx(1 / (2 * math.pi), abs=1e-10)


def test_integrate_halfline():
    assert integrate_halfline(lambda t: np.exp(-t)) == pytest.approx(1.0, rel=1e-12)
    # Gamma oracle: int t^k e^-t / k! dt = 1
    from scipy.special import gammaln
    for k in (10, 50, 100):
        val = integrate_halfline(
            lambda t: np.exp(k * np.log(t) - t - gammaln(k + 1)), order=260)
        assert val == pytest.approx(1.0, rel=1e-10)


def test_integrate_halfline_indicator_subrule():
    # jump integrands go to the finite panel: int_0^c e^-t dt = 1 - e^-c
    for c in (0.5, 1.0, 3.0):
        val = integrate_halfline(lambda t: np.exp(-t), support=c, order=120)
        assert val == pytest.approx(1.0 - math.exp(-c), rel=1e-12)


def _mp_legendre_weight(order, x):
    # Newton on the three-term recurrence at 40 digits from x, then the
    # weight 2 (1 - x^2) / (n P_(n-1)(x))^2 at that zero of P_n
    import mpmath as mp
    with mp.workdps(40):
        x = mp.mpf(x)
        for _ in range(4):
            prev, cur = mp.mpf(1), x
            for j in range(1, order):
                prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
            x -= cur * (1 - x * x) / (order * (prev - x * cur))
        prev, cur = mp.mpf(1), x
        for j in range(1, order - 1):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
        return float(2 * (1 - x * x) / (order * cur) ** 2)


@pytest.mark.parametrize("order", [260, 1040])
def test_gauss_legendre_end_weights_against_mpmath(order):
    # a disk's moment panel puts its outermost rows' mass on the end nodes,
    # so the end weights must hold to 1e-12 like the middle ones
    nodes, weights = qd.gauss_legendre_panel(order, -1.0, 1.0)
    for i in (0, 1, order // 2, order - 2, order - 1):
        ref = _mp_legendre_weight(order, nodes[i])
        assert weights[i] == pytest.approx(ref, rel=1e-12, abs=0.0), i


@pytest.mark.parametrize("order", [1, 2, 3, 8, 9, 100, 261])
def test_gauss_legendre_polynomial_exactness(order):
    nodes, weights = qd.gauss_legendre_panel(order, 0.0, 2.0)
    assert np.all(np.diff(nodes) > 0)
    for deg in range(0, 2 * order, max(1, order // 4)):
        # int_0^2 t^deg dt
        val = float(np.dot(weights, nodes ** deg))
        assert val == pytest.approx(2.0 ** (deg + 1) / (deg + 1), rel=1e-13), deg


def test_doubling_convergence():
    # |I_2n - I_n| decreases monotonically for a smooth fixture
    def estimate(n):
        return qd.integrate_r2(lambda x, xi: np.exp(-(x**2 + xi**2)) / (1 + x**2 + xi**2),
                               order=n)

    diffs = [abs(estimate(2 * n) - estimate(n)) for n in (10, 20, 40)]
    assert diffs[0] > diffs[1] > diffs[2]
