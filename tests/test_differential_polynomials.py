"""The term-list core of closed_forms: d/dx and reduce_terms, the Euler
operator and the Frechet derivative, and the tables derived with them from
u alone.

Three checks hold the derived hierarchy, each exact: the densities and the
order-11 flux equal the tables once transcribed (paper_tables), the Euler
derivative of each density is its flow, and every flow commutes with the
mKdV flow K_3: with K_n = -d/dx(u_{(n-1)x} + f_n) the commutator
K_3'[K_n] - K_n'[K_3] is zero as a differential polynomial.
"""

import numpy as np
import paper_tables as paper
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkdvlab import closed_forms as cf


def _d_dx(terms, k):
    for _ in range(k):
        terms = cf.d_dx(terms)
    return terms


def _apply_frechet(P, G):
    """P'[G] = sum_k (dP/du_{kx}) d^k G/dx^k."""
    return cf.combine(*((1.0, cf.product(coef, _d_dx(G, k)))
                        for k, coef in cf.frechet(P)))


def _commutator(evolution):
    """K_3'[K_n] - K_n'[K_3] for K_n = -d/dx `evolution`."""
    K3 = cf.combine((-1.0, cf.d_dx(cf.evolution_terms(3))))
    Kn = cf.combine((-1.0, cf.d_dx(evolution)))
    return cf.combine((1.0, _apply_frechet(K3, Kn)),
                      (-1.0, _apply_frechet(Kn, K3)))


@pytest.mark.parametrize("order", [5, 7, 9, 11, 13])
def test_flows_commute_with_mkdv(order):
    assert _commutator(cf.evolution_terms(order)) == ()


@pytest.mark.parametrize("index", range(len(cf.flux_terms(11))))
def test_commutator_sees_every_order11_coefficient(index):
    flux = list(cf.flux_terms(11))
    coef, orders = flux[index]
    flux[index] = (coef + 1.0, orders)
    left = _commutator(((1.0, (10,)),) + tuple(flux))
    print(f"term {index} {orders}: {len(left)} nonzero terms")
    assert left


@pytest.mark.parametrize("order,sign", [(3, -1.0), (5, 1.0), (7, -1.0),
                                        (9, 1.0), (11, -1.0)])
def test_flux_is_the_variational_derivative(order, sign):
    # u_{(n-1)x} + f_n = sign dE_n/du
    lhs = ((1.0, (order - 1,)),) + cf.flux_terms(order)
    var = cf.euler(cf.density(cf.energy_kind(order)))
    assert cf.combine((1.0, lhs), (-sign, var)) == ()


@pytest.mark.parametrize("kind", sorted(paper.DENSITIES))
def test_densities_equal_the_transcribed_tables(kind):
    assert (cf.combine((1.0, cf.density(kind)))
            == cf.combine((1.0, paper.DENSITIES[kind])))


def test_order11_flux_equals_the_transcribed_table():
    assert (cf.combine((1.0, cf.flux_terms(11)))
            == cf.combine((1.0, paper.FLUX_11)))


def test_euler_annihilates_total_derivatives():
    for kind in cf.ENERGY_ORDERS:
        assert cf.euler(cf.d_dx(cf.density(kind))) == ()


def test_combine_merges_and_orders():
    terms = cf.combine((1.0, ((1.0, (1, 0)), (2.0, (3,)), (5.0, ()))),
                       (2.0, ((1.0, (0, 1)), (-2.5, ()))))
    assert terms == ((2.0, (3,)), (3.0, (0, 1)))


def test_breather_linearization_matches_printed_operator():
    a, b = 1.2, 0.8
    mu, c = 2.0 * (b**2 - a**2), (a**2 + b**2) ** 2
    printed = {4: ((1.0, ()),),
               2: ((10.0, (0, 0)), (-mu, ())),
               1: ((20.0, (0, 1)),),
               0: ((10.0, (1, 1)), (20.0, (0, 2)), (30.0, (0, 0, 0, 0)),
                   (-6.0 * mu, (0, 0)), (c, ()))}
    got = cf.breather_linearization(a, b)
    assert set(got) == set(printed)
    for k, terms in printed.items():
        assert cf.combine((1.0, got[k]), (-1.0, terms)) == ()


def test_frechet_matches_complex_step():
    # P(u + i h z).imag / h = P'[z] to rounding for a polynomial P; the jet
    # entries are independent variables here, so random rows serve
    rng = np.random.default_rng(5)
    h = 1e-150
    for terms in (cf.euler(cf.density("E7")), cf.density("E9")):
        u, z = rng.standard_normal((2, cf.max_order(terms) + 1, 32))
        step = cf.eval_flux_terms(terms, u + 1j * h * z).imag / h
        lin = sum(cf.eval_flux_terms(coef, u) * z[k]
                  for k, coef in cf.frechet(terms))
        assert np.max(np.abs(step - lin)) <= 1e-12 * np.max(np.abs(lin))


def test_tables_are_derived_once():
    assert cf.flux_terms(9) is cf.flux_terms(9)
    assert cf.density("E9") is cf.density("E9")
    a = cf.frechet(cf.euler(cf.density("E5")))
    assert cf.frechet(cf.euler(cf.density("E5"))) is a


def test_velocity_table_is_the_binomial_expansion():
    # (alpha + i beta)^order = (-1)^(n+1) (alpha delta + i beta gamma),
    # exactly, at integer parameters
    for order in cf.ORDERS:
        n = (order - 1) // 2
        for a, b in ((1, 2), (3, 1), (2, 5)):
            z = (a + 1j * b) ** order * (-1) ** (n + 1)
            v = cf.velocities(order, float(a), float(b))
            assert (a * v.delta, b * v.gamma) == (z.real, z.imag)


# --------------------------------------------------------------------------
# integrate and eliminate

_MONOMIALS = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple)


def _polynomials(coefficients):
    """Term lists without a constant term."""
    return st.lists(st.tuples(coefficients, _MONOMIALS), max_size=6).map(
        lambda ts: cf.combine((1.0, [(float(c), o) for c, o in ts])))


@settings(max_examples=200, deadline=None)
@given(_polynomials(st.integers(-6, 6)))
def test_integrate_inverts_d_dx(P):
    assert cf.integrate(cf.d_dx(P)) == P


@settings(max_examples=200, deadline=None)
@given(_polynomials(st.sampled_from([-2.5, -1.0, -0.5, 0.5, 3.0, 7.0])))
def test_d_dx_inverts_integrate_on_total_derivatives(P):
    T = cf.d_dx(P)
    assert cf.d_dx(cf.integrate(T)) == T


@settings(max_examples=200, deadline=None)
@given(_polynomials(st.integers(-6, 6)), _polynomials(st.integers(-6, 6)))
def test_reduce_terms_keeps_what_is_no_total_derivative(P, Q):
    # R is unique: adding a total derivative leaves it as it is, and it is
    # empty exactly when P is a total derivative
    _, R = cf.reduce_terms(P)
    assert cf.reduce_terms(cf.combine((1.0, P), (1.0, cf.d_dx(Q))))[1] == R
    try:
        cf.integrate(P)
    except ValueError:
        assert R
    else:
        assert R == ()


@pytest.mark.parametrize("terms", [((1.0, (0, 0)),), ((1.0, (1, 1)),),
                                   ((1.0, (0, 2)),), ((1.0, ()),)])
def test_integrate_rejects_what_is_no_total_derivative(terms):
    # u^2, u_x^2, u u_xx = (u u_x)_x - u_x^2, and a constant
    with pytest.raises(ValueError):
        cf.integrate(terms)


def _term_scale(terms, d):
    return max(float(np.max(np.abs(cf.eval_flux_terms(((c, o),), d))))
               for c, o in terms)


@pytest.mark.parametrize("terms", [
    ((1.0, (6,)),) + cf.flux_terms(7),
    ((1.0, (8,)),) + cf.flux_terms(9),
    ((1.0, (4, 5)), (-2.0, (0, 0, 6)), (0.5, (1, 3))),
])
def test_eliminate_by_the_breather_equation(terms):
    a, b = 1.2, 0.8
    got = cf.eliminate(terms, cf.breather_equation(a, b))
    assert cf.max_order(got) <= 3
    # breather jets solve the equation, so both lists agree on them
    p = cf.BreatherParams(5, a, b, 0.3, -0.2)
    jet = cf.breather_jet(p, 0.1, np.linspace(-12.0, 12.0, 97),
                          m=cf.max_order(terms))
    d = [jet.value, *jet.dx]
    err = np.max(np.abs(cf.eval_flux_terms(got, d)
                        - cf.eval_flux_terms(terms, d)))
    scale = max(_term_scale(terms, d), _term_scale(got, d))
    print(f"error {err:.3e} on term scale {scale:.3g}")
    assert err <= 1e-14 * scale


@pytest.mark.parametrize("equation", [((1.0, (4, 4)),), ((1.0, (0, 4)),),
                                      ((1.0, (4,)), (1.0, (0, 4)))])
def test_eliminate_needs_a_constant_leading_coefficient(equation):
    with pytest.raises(ValueError):
        cf.eliminate(((1.0, (5,)),), equation)
