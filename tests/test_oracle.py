"""The quadrature oracles themselves: manifest and self-consistency."""

import pytest

from reference import oracle


def test_manifest_all_pass():
    cases = oracle.manifest()
    assert len(cases) == 31
    bad = [(name, a, q) for name, a, q, tol in cases if not abs(a - q) <= tol * abs(q)]
    assert not bad, f"oracle disagreements: {bad}"


def test_quadrature_node_doubling_stable():
    r3, r4 = oracle.convergence_check()
    assert r3 < 1e-9
    assert r4 < 1e-7


def test_quad3_exact_exponential_moment():
    # separable sanity case integrated in closed form:
    # 2 * int x y z e^{-2x-2y-2z} over the triangle = G(1,1,1) at (2,2,2),
    # but check against an independent hand value instead of matel3:
    # with a=b=g the integral is 4 * (3)/(a+b)^2/(b+g)^2/(g+a)^2 ... simpler:
    # compare two quadrature routes (swapped argument order / symmetry)
    q1 = oracle.quad3_monomial(1, 2, 1, 1.5, 0.7, 0.3)
    q2 = oracle.quad3_monomial(2, 1, 1, 0.7, 1.5, 0.3)
    assert q1 == pytest.approx(q2, rel=1e-10)


def test_quad4_symmetry():
    # swapping the two triangles (i,j,aF,bF) <-> (k,l,cF,dF) leaves the
    # moment invariant
    q1 = oracle.quad4_moment(1, 0, 1, 1, 1, 1.6, 0.6, 0.4, 1.8)
    q2 = oracle.quad4_moment(1, 1, 1, 0, 1, 0.4, 1.8, 1.6, 0.6)
    assert q1 == pytest.approx(q2, rel=1e-8)


def test_zexp_partial_values_and_flags():
    e0, conv = oracle.zexp_partial(2.0, 0)
    assert e0 == pytest.approx(-4.0)
    e1, _ = oracle.zexp_partial(2.0, 1)
    assert e1 == pytest.approx(-2.75)
    assert conv
    assert not oracle.zexp_partial(0.95, 4)[1]
    with pytest.raises(ValueError):
        oracle.zexp_partial(-1.0)
    with pytest.raises(ValueError):
        oracle.zexp_partial(2.0, order=9)


def test_gauss_shell_closed_form():
    assert oracle.gauss_shell_e1(2.0) == pytest.approx(1.25, rel=1e-9)
    assert oracle.gauss_shell_e1(1.0) == pytest.approx(0.625, rel=1e-9)
