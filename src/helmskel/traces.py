"""Trace fields, the multi-block trace operator and the single-trace embedding.

A skeleton field holds one complex vector per trace block (outer boundary
first, then one per subdomain), concatenated into one array, and is tagged
primal (Dirichlet-type) or dual (Neumann-type).  All pairings are bilinear:
no complex conjugation enters a duality bracket, only norms conjugate.
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


def _offsets(sizes) -> tuple:
    """Block offsets ``(0, n_0, n_0 + n_1, ...)`` as Python ints."""
    out = [0]
    for n in sizes:
        out.append(out[-1] + int(n))
    return tuple(out)


def _nonzero_blocks(data: np.ndarray, offsets: tuple) -> np.ndarray:
    """Boolean mask of the (non-empty) blocks of a flat array, vector or
    column block, that hold a nonzero entry."""
    rows = data != 0
    if rows.ndim > 1:
        rows = rows.any(axis=1)
    return np.logical_or.reduceat(rows, offsets[:-1])


class SkeletonField:
    """Trace coefficients of every block, held as one contiguous array.

    ``data`` is an ``(n,)`` complex vector, or an ``(n, m)`` array holding
    m fields as columns, that all blocks share; ``offsets`` are the block
    boundaries within it, and ``blocks`` returns views, so an in-place edit
    of a block edits the field.  The operators apply to all columns at once.
    """

    __slots__ = ("data", "offsets", "kind")

    def __init__(self, blocks, kind: str):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        self._set(np.concatenate(blocks), _offsets(len(b) for b in blocks), kind)

    def _set(self, data, offsets, kind):
        if kind not in ("primal", "dual"):
            raise ValueError(f"kind must be 'primal' or 'dual', got {kind!r}")
        if len(data) != offsets[-1]:
            raise ValueError(f"field of length {len(data)} does not match "
                             f"blocks of total size {offsets[-1]}")
        self.data, self.offsets, self.kind = data, offsets, kind

    @classmethod
    def wrap(cls, data: np.ndarray, offsets: tuple, kind: str) -> "SkeletonField":
        """Field over an existing complex array with the given block offsets
        (a tuple of ints starting at 0); the array is not copied."""
        field = cls.__new__(cls)
        field._set(data, offsets, kind)
        return field

    @staticmethod
    def from_concat(vec: np.ndarray, sizes, kind: str) -> "SkeletonField":
        """Field over a concatenated vector or column block; shares its memory
        when it already is a complex array."""
        return SkeletonField.wrap(np.asarray(vec, dtype=complex), _offsets(sizes), kind)

    @staticmethod
    def zeros(sizes, kind: str) -> "SkeletonField":
        offsets = _offsets(sizes)
        return SkeletonField.wrap(np.zeros(offsets[-1], complex), offsets, kind)

    @property
    def blocks(self) -> list:
        """Views of the blocks: ``(n_b,)`` or ``(n_b, m)`` each."""
        o, d = self.offsets, self.data
        return [d[a:b] for a, b in zip(o, o[1:])]

    def nonzero_blocks(self) -> np.ndarray:
        """Boolean mask of the blocks holding a nonzero entry."""
        return _nonzero_blocks(self.data, self.offsets)

    def _like(self, data) -> "SkeletonField":
        return SkeletonField.wrap(data, self.offsets, self.kind)

    def _check_same(self, other):
        if self.kind != other.kind:
            raise ValueError("arithmetic mixes primal and dual fields")
        if self.offsets != other.offsets:
            raise ValueError("arithmetic mixes fields of different block sizes")

    def __add__(self, other):
        self._check_same(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check_same(other)
        return self._like(self.data - other.data)

    def __mul__(self, scalar):
        return self._like(scalar * self.data)

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.data)

    def copy(self):
        return self._like(self.data.copy())

    def concat(self) -> np.ndarray:
        """The concatenated blocks: the field's own array, not a copy."""
        return self.data


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
    unknown); subdomain blocks drop their interior entries.  All slices are
    written into one new array.
    """
    if vol.kind != "primal":
        raise ValueError("trace_apply expects a primal tuple")
    alpha = vol.gamma[0]
    offsets = _offsets([len(alpha)] + [len(u) - ni for ni, u in zip(n_interior, vol.omega)])
    out = np.empty((offsets[-1],) + alpha.shape[1:], complex)
    out[:len(alpha)] = alpha
    for ni, u, a, b in zip(n_interior, vol.omega, offsets[1:], offsets[2:]):
        out[a:b] = u[ni:]
    return SkeletonField.wrap(out, offsets, "primal")


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
    """Embed a single-valued skeleton vector into matching block traces.

    One gather over the concatenated block map; an ``(n_sigma, m)`` block
    of columns gives a field of m columns.
    """
    x = np.asarray(x, dtype=complex)
    if len(x) != index.n_sigma:
        raise ValueError("skeleton vector has wrong length")
    return SkeletonField.from_concat(x[index.flat_map], index.block_sizes, "primal")


def single_trace_adjoint(q: SkeletonField, index: SkeletonIndex) -> np.ndarray:
    """Sum dual contributions of all blocks incident to each skeleton dof.

    One scatter-add over the concatenated block map, as a sparse product;
    a field of m columns gives an ``(n_sigma, m)`` result.
    """
    if q.kind != "dual":
        raise ValueError("single_trace_adjoint expects a dual field")
    return index.dof_sum @ q.data


def duality_pair(p: SkeletonField, v: SkeletonField) -> complex:
    """Bilinear pairing <p, v> of a dual with a primal field (no conjugation)."""
    kinds = {p.kind, v.kind}
    if kinds != {"primal", "dual"}:
        raise ValueError("duality_pair needs one primal and one dual field")
    return complex(p.data @ v.data)


def skew_pair(m, n) -> complex:
    """Skew-symmetric pairing [(u,p),(v,q)] = <u,q> - <v,p> of trace pairs."""
    u, p = m
    v, q = n
    return duality_pair(q, u) - duality_pair(p, v)
