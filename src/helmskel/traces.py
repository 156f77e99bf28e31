"""Trace fields, the multi-block trace operator and the single-trace embedding.

A skeleton field is one complex vector per trace block (outer boundary
first, then one per subdomain), tagged primal (Dirichlet-type) or dual
(Neumann-type).  All pairings are bilinear: no complex conjugation enters
a duality bracket, only norms conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SkeletonIndex

__all__ = [
    "SkeletonField",
    "VolumeTuple",
    "trace_apply",
    "trace_adjoint",
    "harmonic_lift",
    "lift_adjoint",
    "single_trace_embed",
    "single_trace_adjoint",
    "duality_pair",
    "skew_pair",
]


@dataclass
class SkeletonField:
    """Tuple of per-block trace coefficient vectors.

    A block may also be an ``(n_b, m)`` array holding m fields as columns;
    the operators apply to all columns at once.
    """

    blocks: list
    kind: str

    def __post_init__(self):
        if self.kind not in ("primal", "dual"):
            raise ValueError(f"kind must be 'primal' or 'dual', got {self.kind!r}")
        self.blocks = [np.asarray(b, dtype=complex) for b in self.blocks]

    def _check_same(self, other):
        if self.kind != other.kind:
            raise ValueError("arithmetic mixes primal and dual fields")

    def __add__(self, other):
        self._check_same(other)
        return SkeletonField([a + b for a, b in zip(self.blocks, other.blocks)], self.kind)

    def __sub__(self, other):
        self._check_same(other)
        return SkeletonField([a - b for a, b in zip(self.blocks, other.blocks)], self.kind)

    def __mul__(self, scalar):
        return SkeletonField([scalar * b for b in self.blocks], self.kind)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def copy(self):
        return SkeletonField([b.copy() for b in self.blocks], self.kind)

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    @staticmethod
    def from_concat(vec: np.ndarray, sizes, kind: str) -> "SkeletonField":
        out, o = [], 0
        for n in sizes:
            out.append(np.asarray(vec[o:o + n], dtype=complex))
            o += n
        return SkeletonField(out, kind)

    @staticmethod
    def zeros(sizes, kind: str) -> "SkeletonField":
        return SkeletonField([np.zeros(n, complex) for n in sizes], kind)


@dataclass
class VolumeTuple:
    """Element of the broken volume space (or its dual).

    ``gamma`` is the boundary pair: for a primal tuple the Dirichlet trace
    and the multiplier (alpha, p); for a dual tuple the two functionals
    acting on those slots.  ``omega[j]`` is the subdomain block in local
    dof order (interior first).
    """

    gamma: tuple
    omega: list
    kind: str

    def __post_init__(self):
        self.gamma = (np.asarray(self.gamma[0], dtype=complex),
                      np.asarray(self.gamma[1], dtype=complex))
        self.omega = [np.asarray(b, dtype=complex) for b in self.omega]

    def __add__(self, other):
        if self.kind != other.kind:
            raise ValueError("arithmetic mixes primal and dual tuples")
        return VolumeTuple((self.gamma[0] + other.gamma[0], self.gamma[1] + other.gamma[1]),
                           [a + b for a, b in zip(self.omega, other.omega)], self.kind)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, scalar):
        return VolumeTuple((scalar * self.gamma[0], scalar * self.gamma[1]),
                           [scalar * b for b in self.omega], self.kind)

    __rmul__ = __mul__

    def copy(self):
        return VolumeTuple((self.gamma[0].copy(), self.gamma[1].copy()),
                           [b.copy() for b in self.omega], self.kind)


def trace_apply(vol: VolumeTuple, n_interior) -> SkeletonField:
    """Dirichlet trace of a volume tuple: boundary slice of every block.

    The boundary block simply forwards its first component (the trace
    unknown); subdomain blocks drop their interior entries.
    """
    if vol.kind != "primal":
        raise ValueError("trace_apply expects a primal tuple")
    blocks = [vol.gamma[0].copy()]
    for ni, u in zip(n_interior, vol.omega):
        blocks.append(u[ni:].copy())
    return SkeletonField(blocks, "primal")


def trace_adjoint(q: SkeletonField, n_interior, omega_sizes) -> VolumeTuple:
    """Adjoint trace: scatter dual blocks into the boundary slots.

    Interior slots are never written; the boundary block lands in the
    trace-unknown functional slot.  Blocks of ``(n_b, m)`` columns give
    ``(n, m)`` volume blocks.
    """
    if q.kind != "dual":
        raise ValueError("trace_adjoint expects a dual field")
    omega = []
    for ni, n, qb in zip(n_interior, omega_sizes, q.blocks[1:]):
        v = np.zeros((n,) + qb.shape[1:], complex)
        v[ni:] = qb
        omega.append(v)
    q_gamma = q.blocks[0]
    return VolumeTuple((q_gamma.copy(), np.zeros(q_gamma.shape, complex)), omega, "dual")


def harmonic_lift(v: SkeletonField, dtn_blocks) -> VolumeTuple:
    """Minimal-norm extension of a primal field into the volume.

    Subdomain blocks are extended by the interior solve of the SPD norm
    Gram (the discrete homogeneous -Laplace + gamma^-2 equation); the
    boundary block lifts to (alpha, 0).  The trace of the result is the
    input again.
    """
    if v.kind != "primal":
        raise ValueError("harmonic_lift expects a primal field")
    ng = len(v.blocks[0])
    omega = [dtn.lift(vb) for dtn, vb in zip(dtn_blocks, v.blocks[1:])]
    return VolumeTuple((v.blocks[0].copy(), np.zeros(ng, complex)), omega, "primal")


def lift_adjoint(phi: VolumeTuple, dtn_blocks) -> SkeletonField:
    """Pair a volume functional against the lifting basis, blockwise."""
    if phi.kind != "dual":
        raise ValueError("lift_adjoint expects a dual tuple")
    blocks = [phi.gamma[0].copy()]
    for dtn, pb in zip(dtn_blocks, phi.omega):
        blocks.append(dtn.lift_adjoint(pb))
    return SkeletonField(blocks, "dual")


def single_trace_embed(x: np.ndarray, index: SkeletonIndex) -> SkeletonField:
    """Embed a single-valued skeleton vector into matching block traces."""
    x = np.asarray(x, dtype=complex)
    if len(x) != index.n_sigma:
        raise ValueError("skeleton vector has wrong length")
    return SkeletonField([x[m] for m in index.block_map], "primal")


def single_trace_adjoint(q: SkeletonField, index: SkeletonIndex) -> np.ndarray:
    """Sum dual contributions of all blocks incident to each skeleton dof.

    Blocks of ``(n_b, m)`` columns give an ``(n_sigma, m)`` result.  A
    block meets each skeleton dof at most once, so its rows add by plain
    fancy-index assignment.
    """
    if q.kind != "dual":
        raise ValueError("single_trace_adjoint expects a dual field")
    out = np.zeros((index.n_sigma,) + q.blocks[0].shape[1:], complex)
    for m, qb in zip(index.block_map, q.blocks):
        out[m] += qb
    return out


def duality_pair(p: SkeletonField, v: SkeletonField) -> complex:
    """Bilinear pairing <p, v> of a dual with a primal field (no conjugation)."""
    kinds = {p.kind, v.kind}
    if kinds != {"primal", "dual"}:
        raise ValueError("duality_pair needs one primal and one dual field")
    acc = 0.0 + 0.0j
    for a, b in zip(p.blocks, v.blocks):
        acc += a @ b
    return complex(acc)


def skew_pair(m, n) -> complex:
    """Skew-symmetric pairing [(u,p),(v,q)] = <u,q> - <v,p> of trace pairs."""
    u, p = m
    v, q = n
    return duality_pair(q, u) - duality_pair(p, v)
