"""Finite-dimensional Lie algebras as structure-constant data.

The tensor c[i][j][k] is the coefficient of e_k in [e_i, e_j].  All dual
objects use the dual basis of the chosen basis, so the pairing matrix is the
identity and coadjoint matrices are plain (negative) transposes.
"""

import numpy as np

from . import linalg

JACOBI_TOL = 1e-10
REDUCTIVE_TOL = 1e-12


class LieAlgebraData:
    """A Lie algebra given by its structure constants.

    c must be finite (else ValueError) and antisymmetric exactly as
    stored; the Jacobi identity is verified to JACOBI_TOL on construction
    unless check=False (the double construction deliberately builds
    candidates that may fail Jacobi).  The algebra keeps a copy of c, and
    c and the ad table are read-only, so the two cannot drift apart.
    """

    def __init__(self, c, basis_names=None, check=True):
        c = np.array(c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure tensor must have shape (n, n, n)")
        # a NaN Jacobi residual would pass the check below
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        if not np.array_equal(c, -np.transpose(c, (1, 0, 2))):
            raise ValueError("structure constants are not antisymmetric as stored")
        self.c = c
        self.dim = c.shape[0]
        if basis_names is None:
            basis_names = ["e%d" % i for i in range(self.dim)]
        if len(basis_names) != self.dim:
            raise ValueError("need %d basis names" % self.dim)
        self.basis_names = list(basis_names)
        # ad table: ad[i] is the matrix of ad_{e_i}, ad[i][k, j] = c[i, j, k]
        self.ad = np.transpose(c, (0, 2, 1)).copy()
        c.setflags(write=False)
        self.ad.setflags(write=False)
        if check:
            res = self.jacobi_residual()
            if not res <= JACOBI_TOL:
                raise ValueError("Jacobi residual %.3g exceeds %.1g" % (res, JACOBI_TOL))

    def bracket(self, x, y):
        return np.einsum("i,j,ijk->k", x, y, self.c)

    def ad_matrix(self, x):
        """Matrix of ad_x = [x, .] acting on coordinate columns; for a stack
        of vectors x, the stack of their matrices."""
        return np.einsum("...i,ikj->...kj", np.asarray(x, dtype=float),
                         self.ad)

    def coad_matrix(self, x):
        """Coadjoint action on the dual: <coad_x xi, y> = -<xi, [x, y]>."""
        return -self.ad_matrix(x).T

    def jacobi_residual(self):
        c = self.c
        j = (np.einsum("ijm,mkl->ijkl", c, c)
             + np.einsum("jkm,mil->ijkl", c, c)
             + np.einsum("kim,mjl->ijkl", c, c))
        return float(np.max(np.abs(j)))

    def killing_form(self):
        """K[i, j] = trace(ad_{e_i} ad_{e_j})."""
        return np.einsum("iab,jba->ij", self.ad, self.ad)

    def __repr__(self):
        return "LieAlgebraData(dim=%d)" % self.dim


class ReductiveDecomposition:
    """A splitting of the basis index range into a subalgebra part and a
    complement part with [sub, comp] contained in comp."""

    def __init__(self, algebra, sub_indices, comp_indices, check=True):
        self.algebra = algebra
        self.split = linalg.BlockSplit(algebra.dim, sub_indices, comp_indices)
        self.sub = self.split.first
        self.comp = self.split.second
        # injections/projections in the ambient basis
        self.inj_sub = self.split.inj1
        self.inj_comp = self.split.inj2
        self.proj_sub = self.split.proj1
        self.proj_comp = self.split.proj2
        self.diag_sub = linalg.indicator_diag(algebra.dim, self.sub)
        self.diag_comp = linalg.indicator_diag(algebra.dim, self.comp)
        if check:
            rep = check_reductive(algebra, sub_indices, comp_indices)
            if not rep["passed"]:
                raise ValueError(
                    "not a reductive decomposition: closure %.3g, action %.3g"
                    % (rep["closure_residual"], rep["action_residual"]))

    @property
    def dim_sub(self):
        return len(self.sub)

    @property
    def dim_comp(self):
        return len(self.comp)

    def sub_algebra(self):
        """The subalgebra as its own LieAlgebraData in the sub basis."""
        idx = self.sub
        c = self.algebra.c[np.ix_(idx, idx, idx)]
        return LieAlgebraData(c, [self.algebra.basis_names[i] for i in idx])

    def __repr__(self):
        return "ReductiveDecomposition(sub=%s, comp=%s)" % (
            list(self.sub), list(self.comp))


def check_reductive(algebra, sub_indices, comp_indices):
    """Residuals of [sub, sub] in sub and [sub, comp] in comp."""
    split = linalg.BlockSplit(algebra.dim, sub_indices, comp_indices)
    c = algebra.c
    closure = c[np.ix_(split.first, split.first, split.second)]
    action = c[np.ix_(split.first, split.second, split.first)]
    r1 = float(np.max(np.abs(closure))) if closure.size else 0.0
    r2 = float(np.max(np.abs(action))) if action.size else 0.0
    return {"closure_residual": r1, "action_residual": r2,
            "passed": r1 <= REDUCTIVE_TOL and r2 <= REDUCTIVE_TOL}


def killing_invariance_residual(algebra):
    """max |K([x,y],z) + K(y,[x,z])| over basis triples."""
    k = algebra.killing_form()
    t = np.einsum("ijm,mk->ijk", algebra.c, k) + np.einsum("ikm,jm->ijk", algebra.c, k)
    return float(np.max(np.abs(t)))


def invariant_triple_tensor(algebra, form):
    """The alternating 3-tensor with upper indices built from a nondegenerate
    invariant symmetric form B:

        t[i, j, k] = <e^i, [B^{-1} e^j, B^{-1} e^k]>.

    For invariant B this is totally antisymmetric and ad-invariant; it is
    returned in exactly alternating form.
    """
    binv = np.linalg.inv(np.asarray(form, dtype=float))
    t = np.einsum("aj,bk,abi->ijk", binv, binv, algebra.c)
    return linalg.antisymmetrize3(t)


def tensor3_invariance_residual(algebra, t):
    """Residual of ad-invariance of an upper-index 3-tensor:
    the action of every basis element must annihilate it."""
    ad = algebra.ad
    act = (np.einsum("xil,ljk->xijk", ad, t)
           + np.einsum("xjl,ilk->xijk", ad, t)
           + np.einsum("xkl,ijl->xijk", ad, t))
    return float(np.max(np.abs(act)))


def sl2_data():
    """sl2 over the reals in the basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    c[0, 2, 2] = -2.0
    c[2, 0, 2] = 2.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    return LieAlgebraData(c, ["h", "e", "f"])
