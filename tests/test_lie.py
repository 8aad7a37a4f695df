"""Structure-constant layer: bracket tables, Killing form, reductive splits."""

import numpy as np
import pytest

from dynlie import lie


def so3_data():
    c = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return lie.LieAlgebraData(c, basis_names=["x", "y", "z"])


def test_sl2_bracket_table():
    g = lie.sl2_data()
    h, e, f = np.eye(3)
    assert np.array_equal(g.bracket(h, e), 2.0 * e)
    assert np.array_equal(g.bracket(h, f), -2.0 * f)
    assert np.array_equal(g.bracket(e, f), h)
    assert g.jacobi_residual() == 0.0


def test_sl2_ad_h_spectrum():
    g = lie.sl2_data()
    w = np.sort(linalg_spectrum_real(g.ad_matrix(np.array([1.0, 0, 0]))))
    assert np.allclose(w, [-2.0, 0.0, 2.0], atol=1e-13)


def linalg_spectrum_real(a):
    w = np.linalg.eigvals(a)
    assert np.max(np.abs(w.imag)) < 1e-12
    return w.real


def test_sl2_killing_values():
    g = lie.sl2_data()
    k = g.killing_form()
    assert abs(k[0, 0] - 8.0) < 1e-14   # B(h, h)
    assert abs(k[1, 2] - 4.0) < 1e-14   # B(e, f)
    assert abs(k[1, 1]) < 1e-14


def test_coad_pairing_definition():
    # <coad_x xi, y> + <xi, [x, y]> = 0
    g = so3_data()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, xi, y = rng.standard_normal((3, 3))
        err = abs(np.dot(g.coad_matrix(x) @ xi, y) + np.dot(xi, g.bracket(x, y)))
        assert err < 1e-13


def test_killing_invariance():
    assert lie.killing_invariance_residual(lie.sl2_data()) < 1e-12
    assert lie.killing_invariance_residual(so3_data()) < 1e-12


def test_zero_vector_gives_zero_maps():
    g = lie.sl2_data()
    assert np.array_equal(g.ad_matrix(np.zeros(3)), np.zeros((3, 3)))


def test_algebra_keeps_a_read_only_copy_of_its_constants():
    # a later write to the caller's array changes neither bracket nor ad
    c = lie.sl2_data().c.copy()
    g = lie.LieAlgebraData(c, ["h", "e", "f"])
    c[0, 1, 1] = 5.0
    h, e = np.eye(3)[:2]
    assert np.array_equal(g.bracket(h, e), [0.0, 2.0, 0.0])
    assert np.array_equal(g.ad_matrix(h) @ e, g.bracket(h, e))
    for table in (g.c, g.ad):
        with pytest.raises(ValueError):
            table[0, 1, 1] = 5.0


def test_invariant_triple_tensor():
    g = lie.sl2_data()
    t = lie.invariant_triple_tensor(g, g.killing_form())
    assert lie.tensor3_invariance_residual(g, t) < 1e-12
    from dynlie.linalg import alternating_residual
    assert alternating_residual(t) < 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("check", [True, False])
def test_non_finite_structure_constants_are_refused(bad, check):
    # with its mirror the tensor is antisymmetric as stored, and a NaN
    # Jacobi residual would pass the tolerance test
    c = lie.sl2_data().c.copy()
    c[0, 1, 2], c[1, 0, 2] = bad, -bad
    with pytest.raises(ValueError, match="finite"):
        lie.LieAlgebraData(c, check=check)


def test_jacobi_residual_that_overflows_is_refused():
    # finite constants whose Jacobi products overflow give a NaN residual,
    # which a `res > tol` test would let through
    rng = np.random.default_rng(0)
    c = rng.standard_normal((3, 3, 3))
    c = c - c.transpose(1, 0, 2)
    with pytest.raises(ValueError, match="Jacobi"):
        lie.LieAlgebraData(c)
    with np.errstate(all="ignore"):
        assert np.isnan(lie.LieAlgebraData(1e200 * c,
                                           check=False).jacobi_residual())
        with pytest.raises(ValueError, match="Jacobi residual nan"):
            lie.LieAlgebraData(1e200 * c)


def test_antisymmetry_enforced():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0  # missing the mirrored entry
    with pytest.raises(ValueError):
        lie.LieAlgebraData(c)


def test_jacobi_enforced_unless_disabled():
    # [e0,e1] = e2, [e1,e2] = e0, [e2,e0] = e0 fails Jacobi:
    # the cyclic sum on (e0,e1,e2) comes out to e2
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    c[2, 0, 0] = 1.0
    c[0, 2, 0] = -1.0
    bad = lie.LieAlgebraData(c, check=False)
    assert bad.jacobi_residual() > 0.1
    with pytest.raises(ValueError):
        lie.LieAlgebraData(c)


def test_reductive_split_sl2():
    g = lie.sl2_data()
    rep = lie.check_reductive(g, [0], [1, 2])
    assert rep["passed"]
    # span(e) is a subalgebra but (h, f) is not an invariant complement
    rep2 = lie.check_reductive(g, [1], [0, 2])
    assert not rep2["passed"]


def test_reductive_abelian_any_split():
    g = lie.LieAlgebraData(np.zeros((4, 4, 4)))
    assert lie.check_reductive(g, [0, 2], [1, 3])["passed"]


def test_sub_algebra_extraction():
    g = lie.sl2_data()
    dec = lie.ReductiveDecomposition(g, [0], [1, 2])
    sub = dec.sub_algebra()
    assert sub.dim == 1
    assert np.array_equal(sub.c, np.zeros((1, 1, 1)))
    assert dec.dim_sub == 1 and dec.dim_comp == 2


def test_decomposition_rejects_bad_split():
    g = lie.sl2_data()
    with pytest.raises(ValueError):
        lie.ReductiveDecomposition(g, [1], [0, 2])
