"""Block arrays of the volume and skeleton spaces, and the trace between them.

Volume tuples and skeleton fields share one layout: a contiguous complex
array, ``(N,)`` or ``(N, m)`` with m columns, cut into blocks at fixed
offsets, and tagged primal (Dirichlet-type) or dual (Neumann-type).  A
volume tuple has the blocks ``alpha, p, u_1 ... u_J`` (the boundary pair,
then one block per subdomain in local dof order, interior first); a
skeleton field has one trace block per trace block, outer boundary first.
The trace ``B`` is one gather of the trace rows of a volume tuple (alpha
and the boundary dofs of every subdomain), and ``B^T`` the scatter of a
field into those rows of a zero tuple.  All pairings are bilinear: no
complex conjugation enters a duality bracket, only norms conjugate.
"""

from __future__ import annotations

from functools import lru_cache

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


class _BlockArray:
    """Coefficients of every block, held as one contiguous array.

    ``data`` is an ``(N,)`` complex vector, or an ``(N, m)`` array holding
    m elements as columns, that all blocks share; ``offsets`` are the block
    boundaries within it, and ``blocks`` returns views, so an in-place edit
    of a block edits the whole.  Arithmetic and copies are one numpy
    operation on ``data``, and the operators apply to all columns at once.
    """

    __slots__ = ("data", "offsets", "kind")

    def __init__(self, blocks, kind: str):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        self._set(np.concatenate(blocks), _offsets(len(b) for b in blocks), kind)

    def _set(self, data, offsets, kind):
        if kind not in ("primal", "dual"):
            raise ValueError(f"kind must be 'primal' or 'dual', got {kind!r}")
        if len(data) != offsets[-1]:
            raise ValueError(f"array of length {len(data)} does not match "
                             f"blocks of total size {offsets[-1]}")
        self.data, self.offsets, self.kind = data, offsets, kind

    @classmethod
    def wrap(cls, data: np.ndarray, offsets: tuple, kind: str):
        """Element over an existing complex array with the given block
        offsets (a tuple of ints starting at 0); the array is not copied."""
        out = cls.__new__(cls)
        out._set(data, offsets, kind)
        return out

    @classmethod
    def from_concat(cls, vec: np.ndarray, sizes, kind: str):
        """Element over a concatenated vector or column block; shares its
        memory when it already is a complex array."""
        return cls.wrap(np.asarray(vec, dtype=complex), _offsets(sizes), kind)

    @classmethod
    def zeros(cls, sizes, kind: str):
        offsets = _offsets(sizes)
        return cls.wrap(np.zeros(offsets[-1], complex), offsets, kind)

    @property
    def blocks(self) -> list:
        """Views of the blocks: ``(n_b,)`` or ``(n_b, m)`` each."""
        o, d = self.offsets, self.data
        return [d[a:b] for a, b in zip(o, o[1:])]

    def _like(self, data):
        return type(self).wrap(data, self.offsets, self.kind)

    def _check_same(self, other):
        if self.kind != other.kind:
            raise ValueError("arithmetic mixes primal and dual elements")
        if self.offsets != other.offsets:
            raise ValueError("arithmetic mixes elements of different block sizes")

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
        """The concatenated blocks: the element's own array, not a copy."""
        return self.data


class SkeletonField(_BlockArray):
    """Trace coefficients, one block per trace block (outer boundary first)."""

    __slots__ = ()


class VolumeTuple(_BlockArray):
    """Element of the broken volume space (or its dual).

    The blocks are ``alpha, p, u_1 ... u_J``.  ``gamma`` is the boundary
    pair: for a primal tuple the Dirichlet trace and the multiplier
    (alpha, p); for a dual tuple the two functionals acting on those
    slots.  ``omega[j]`` is the subdomain block in local dof order
    (interior first).  Both are views of ``data``.
    """

    __slots__ = ()

    def __init__(self, gamma, omega, kind: str):
        super().__init__([gamma[0], gamma[1], *omega], kind)

    @property
    def gamma(self) -> tuple:
        o, d = self.offsets, self.data
        return d[:o[1]], d[o[1]:o[2]]

    @property
    def omega(self) -> list:
        return self.blocks[2:]


@lru_cache(maxsize=16)
def _trace_rows(offsets: tuple, n_interior: tuple):
    """Rows of the volume layout ``offsets`` that carry a trace, in skeleton
    order (alpha, then the boundary dofs of each subdomain), and the block
    offsets of the skeleton field they form."""
    starts = (0,) + tuple(a + ni for a, ni in zip(offsets[2:], n_interior))
    ends = (offsets[1],) + offsets[3:]
    rows = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends)])
    rows.flags.writeable = False
    return rows, _offsets(b - a for a, b in zip(starts, ends))


def trace_apply(vol: VolumeTuple, n_interior) -> SkeletonField:
    """Dirichlet trace of a volume tuple: one gather of its trace rows.

    The boundary block forwards alpha (the trace unknown), subdomain blocks
    drop their interior entries and the multiplier p is not read.
    """
    if vol.kind != "primal":
        raise ValueError("trace_apply expects a primal tuple")
    rows, offsets = _trace_rows(vol.offsets, tuple(n_interior))
    return SkeletonField.wrap(vol.data[rows], offsets, "primal")


def _zero_extension(field: SkeletonField, n_interior, omega_sizes) -> VolumeTuple:
    """The volume tuple, of the field's kind, that holds the field in its
    trace rows and zero elsewhere: one scatter into zeros."""
    ng = field.offsets[1]
    offsets = _offsets((ng, ng, *omega_sizes))
    rows, field_offsets = _trace_rows(offsets, tuple(n_interior))
    if field_offsets != field.offsets:
        raise ValueError("field blocks do not match the volume layout")
    data = np.zeros((offsets[-1],) + field.data.shape[1:], complex)
    data[rows] = field.data
    return VolumeTuple.wrap(data, offsets, field.kind)


def trace_adjoint(q: SkeletonField, n_interior, omega_sizes) -> VolumeTuple:
    """Adjoint trace: scatter a dual field into the trace rows of a zero tuple.

    Interior slots and the multiplier slot stay zero; the boundary block
    lands in the trace-unknown functional slot.  A field of m columns gives
    a tuple of m columns.
    """
    if q.kind != "dual":
        raise ValueError("trace_adjoint expects a dual field")
    return _zero_extension(q, n_interior, omega_sizes)


def harmonic_lift(v: SkeletonField, dtn_blocks) -> VolumeTuple:
    """Minimal-norm extension of a primal field into the volume.

    Subdomain blocks are extended by the interior solve of the SPD norm
    Gram (the discrete homogeneous -Laplace + gamma^-2 equation); the
    boundary block lifts to (alpha, 0).  The trace of the result is the
    input again.
    """
    if v.kind != "primal":
        raise ValueError("harmonic_lift expects a primal field")
    alpha, *rest = v.blocks
    omega = [dtn.lift(vb) for dtn, vb in zip(dtn_blocks, rest)]
    return VolumeTuple((alpha, np.zeros(alpha.shape)), omega, "primal")


def lift_adjoint(phi: VolumeTuple, dtn_blocks) -> SkeletonField:
    """Pair a volume functional against the lifting basis, blockwise."""
    if phi.kind != "dual":
        raise ValueError("lift_adjoint expects a dual tuple")
    blocks = [dtn.lift_adjoint(pb) for dtn, pb in zip(dtn_blocks, phi.omega)]
    return SkeletonField([phi.gamma[0], *blocks], "dual")


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
