import numpy as np
import pytest
import scipy.sparse.linalg as spla

from helmskel import build_problem
from helmskel.traces import SkeletonField


@pytest.fixture(scope="session")
def ref_problem():
    """Reference configuration: unit square, 8x8 mesh, 2x2 partition, robin."""
    return build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")


@pytest.fixture(scope="session")
def small_problem():
    """Desk-scale problem for dense oracles."""
    return build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def rand_field():
    def make(problem, rng, kind):
        return SkeletonField(
            [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for n in problem.block_sizes], kind)
    return make


@pytest.fixture
def harmonic_extension():
    """Discrete (-Laplace + gamma^-2) harmonic extension of boundary values v
    into a subdomain block: the full local vector, interior first, whose
    interior part is H_ii^-1 (-H_ib v) for the block's volume norm Gram H."""
    def extend(forms, v):
        ni = forms.n_interior
        H = forms.H.tocsc()
        return np.concatenate([spla.spsolve(H[:ni, :ni], -(H[:ni, ni:] @ v)), v])
    return extend


@pytest.fixture
def dual_apply():
    """S q or Pi q of a dual field: the operators act in whitened coordinates
    only, so q is whitened, ``op`` applied and the result unwhitened."""
    def apply(problem, op, q):
        imp = problem.impedance
        return imp.unwhiten(op.apply(imp.whiten(q)))
    return apply
