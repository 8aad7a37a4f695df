"""Twisting a quasi-bialgebra structure along a skew map.

A skew map from the dual to the algebra moves the chosen isotropic
complement inside the double; the induced structure on the algebra changes
by explicit quadratic formulas while the double itself only changes by a
block-affine change of frame.  This module applies the formulas, builds
that change of frame with its certification report, checks the
twist-invariance of the first structure equation, and tests membership of
a twist parameter in the compatibility variety attached to a reductive
split.
"""

import numpy as np

from .linalg import antisymmetrize3, skew_residual
from .qbia import QuasiBialgebra, _max_abs, first_condition_tensor

SKEW_TOL = 1e-12
TAU_TOL = 1e-10
MODULI_TOL = 1e-10


class NotSkew(ValueError):
    """Twist parameters must be skew-symmetric maps from the dual."""


def _check_twist(t, n):
    t = np.asarray(t, dtype=float)
    if t.shape != (n, n):
        raise NotSkew("twist must be %d x %d, got %s" % (n, n, (t.shape,)))
    res = skew_residual(t)
    if res > SKEW_TOL:
        raise NotSkew("twist skew residual %.3g exceeds %.1g" % (res, SKEW_TOL))
    return 0.5 * (t - t.T)


def twist_tensors(g, varpi, phi, t):
    """Raw twisted (cocycle, 3-tensor) pair, no validation or projection.

    The cocycle gains the boundary of t; the 3-tensor gains the cyclic sum
    of the bracket of t-images plus the cocycle cross term.
    """
    w_new = (varpi
             + np.einsum("ika,ab->ikb", g.ad, t)
             + np.einsum("ka,iba->ikb", t, g.ad))
    p = (np.einsum("ia,jb,ijk->abk", t, t, g.c)
         + np.einsum("ia,ikb->abk", t, varpi))
    phi_new = phi + p + p.transpose(1, 2, 0) + p.transpose(2, 0, 1)
    return w_new, phi_new


def apply_twist(G, t, check=True):
    """The structure obtained by moving the complement to the graph of t.

    Twisting by t then by u equals twisting by t + u; twisting by zero is
    the identity.
    """
    t = _check_twist(t, G.dim)
    w_new, phi_new = twist_tensors(G.g, G.varpi, G.phi, t)
    return QuasiBialgebra(G.g, w_new, antisymmetrize3(phi_new),
                          decomp=G.decomp, check=check)


def tau_map(t, double_twisted, double_original):
    """Block-affine map identifying the twisted double with the original.

    Sends (x, xi) to (x + t xi, xi).  Returns the matrix together with a
    report carrying the bracket-intertwining and isometry residuals.
    """
    n = double_original.n
    if double_twisted.n != n:
        raise ValueError("doubles have mismatched dimensions")
    t = _check_twist(t, n)
    tau = np.eye(2 * n)
    tau[:n, n:] = t
    ct = double_twisted.d.c
    c0 = double_original.d.c
    lhs = np.einsum("ijm,km->ijk", ct, tau)
    rhs = np.einsum("ai,bj,abk->ijk", tau, tau, c0)
    bracket_res = float(np.max(np.abs(lhs - rhs)))
    gram = tau.T @ double_original.pairing @ tau
    isometry_res = float(np.max(np.abs(gram - double_twisted.pairing)))
    report = {
        "bracket_residual": bracket_res,
        "isometry_residual": isometry_res,
        "passed": max(bracket_res, isometry_res) <= TAU_TOL,
    }
    return tau, report


def first_condition_invariance(G, t, samples=None, seed=0):
    """How far the first structure equation moves under a twist.

    The defect tensor of the first structure equation is twist invariant,
    without assuming the structure equations themselves hold.  With
    samples=None the full tensors are compared; otherwise the difference is
    contracted against that many seeded random (vector, three covectors)
    tuples.
    """
    t = _check_twist(t, G.dim)
    a1 = first_condition_tensor(G.g, G.varpi, G.phi)
    w2, phi2 = twist_tensors(G.g, G.varpi, G.phi, t)
    a2 = first_condition_tensor(G.g, w2, antisymmetrize3(phi2))
    diff = a1 - a2
    if samples is None:
        return float(np.max(np.abs(diff)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x, xi, eta, zeta = rng.standard_normal((4, G.dim))
        val = np.einsum("xabk,x,a,b,k->", diff, x, xi, eta, zeta)
        worst = max(worst, abs(float(val)))
    return worst


def moduli_membership(G, decomp, t):
    """Does a twist parameter respect a reductive split?

    Checks that t kills the annihilator of the complement, maps the
    annihilator of the subalgebra into the complement, commutes with the
    subalgebra action, and that the twisted 3-tensor has no component with
    all indices in the complement.
    """
    t = _check_twist(t, G.dim)
    sub = np.asarray(decomp.sub, dtype=int)
    comp = np.asarray(decomp.comp, dtype=int)
    r_kills = _max_abs(t[:, sub])
    r_into = _max_abs(t[np.ix_(sub, comp)])
    r_equiv = max((_max_abs(G.g.ad[z] @ t + t @ G.g.ad[z].T) for z in sub),
                  default=0.0)
    _, phi2 = twist_tensors(G.g, G.varpi, G.phi, t)
    phi2 = antisymmetrize3(phi2)
    r_phi = _max_abs(phi2[np.ix_(comp, comp, comp)])
    report = {
        "kills_sub_annihilator_residual": r_kills,
        "maps_into_complement_residual": r_into,
        "equivariance_residual": r_equiv,
        "twisted_phi_mod_sub_residual": r_phi,
    }
    report["member"] = all(v <= MODULI_TOL for v in report.values())
    return report
