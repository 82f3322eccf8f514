"""Data declared on sets (``opp_dat`` in the C++ API).

A :class:`Dat` owns a ``(set.size, dim)`` array.  For particle sets the
backing array is over-allocated (capacity) and a view of the live region is
exposed; for mesh sets the array is exact.  Dats on partitioned meshes may
additionally carry halo rows beyond the owned region (see
:mod:`repro.runtime.halo`).
"""
from __future__ import annotations


import numpy as np

from . import tracing
from .sets import ParticleSet, Set
from .types import dtype_of

__all__ = ["Dat", "Global"]


class Dat:
    """A physical quantity attached to each element of a set.

    Parameters
    ----------
    dset:
        The set this data is defined on.
    dim:
        Number of components per element (1 for a scalar field).
    dtype:
        Element datatype (``OPP_REAL``/``OPP_INT``/… or any numpy dtype).
    data:
        Initial values with shape ``(set.size, dim)`` or ``(set.size,)``
        for ``dim == 1``; ``None`` zero-initialises (the paper's
        ``nullptr`` case, used for empty particle sets).
    name:
        Human-readable label.
    """

    def __init__(self, dset: Set, dim: int, dtype, data=None, name: str = ""):
        if dim < 1:
            raise ValueError(f"dat dimension must be >= 1, got {dim}")
        self.set = dset
        self.dim = int(dim)
        self.dtype = dtype_of(dtype)
        self.name = name or f"dat_on_{dset.name}"
        #: the descriptors :func:`~repro.core.args.arg_dat` built on this
        #: dat, by spec
        self._args: dict = {}

        cap = dset.capacity if isinstance(dset, ParticleSet) else dset.size
        self._raw = np.zeros((cap, self.dim), dtype=self.dtype)
        if data is not None:
            arr = np.asarray(data, dtype=self.dtype)
            if arr.ndim == 1:
                if self.dim == 1:
                    arr = arr.reshape(-1, 1)
                else:
                    arr = arr.reshape(-1, self.dim)
            if arr.shape != (dset.size, self.dim):
                raise ValueError(
                    f"dat {self.name!r}: data shape {arr.shape} does not match "
                    f"({dset.size}, {self.dim})")
            self._raw[: dset.size] = arr
        dset.dats.append(self)

    # -- views ----------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """Writable ``(live, dim)`` view of the live region."""
        if tracing.active:
            tracing.touch(self)
        return self._raw[: self.set.size]

    @property
    def data_ro(self) -> np.ndarray:
        """Read-only view of the live region."""
        if tracing.active:
            tracing.touch(self)
        view = self._raw[: self.set.size]
        view = view.view()
        view.flags.writeable = False
        return view

    @property
    def nbytes_per_elem(self) -> int:
        return self.dim * self.dtype.itemsize

    @property
    def raw(self) -> np.ndarray:
        """The full ``(capacity, dim)`` backing array, holes included.

        The native tier binds this buffer's address once per call site;
        everyone else should use :attr:`data`.
        """
        if tracing.active:
            tracing.touch(self)
        return self._raw

    def fill(self, value) -> None:
        if tracing.active:
            tracing.touch(self)
        self._raw[: self.set.size] = value

    def copy_from(self, other: "Dat") -> None:
        if other.set.size != self.set.size or other.dim != self.dim:
            raise ValueError("copy_from requires matching shape")
        if tracing.active:
            tracing.touch(self)
            tracing.touch(other)
        self._raw[: self.set.size] = other._raw[: other.set.size]

    def _grow(self, new_capacity: int) -> None:
        grown = np.zeros((new_capacity, self.dim), dtype=self.dtype)
        grown[: self._raw.shape[0]] = self._raw
        self._raw = grown

    def __repr__(self) -> str:
        return (f"<Dat {self.name!r} on {self.set.name!r} dim={self.dim} "
                f"dtype={self.dtype.name}>")


class Global:
    """A global (reduction) argument value, ``opp_arg_gbl`` style.

    Holds a small array of ``dim`` values; kernels may read it or reduce
    into it with ``OPP_INC``/``OPP_MIN``/``OPP_MAX``.
    """

    def __init__(self, dim: int, dtype=np.float64, data=None, name: str = ""):
        if dim < 1:
            raise ValueError("global dimension must be >= 1")
        self.dim = int(dim)
        self.dtype = dtype_of(dtype)
        self.name = name or "global"
        #: the descriptors :func:`~repro.core.args.arg_gbl` built on this
        #: global, by spec
        self._args: dict = {}
        self._data = np.zeros(self.dim, dtype=self.dtype)
        if data is not None:
            self._data[:] = np.asarray(data,
                                       dtype=self.dtype).reshape(self.dim)

    @property
    def data(self) -> np.ndarray:
        if tracing.active:
            tracing.touch(self)
        return self._data

    @data.setter
    def data(self, value) -> None:
        # supports augmented assignment (g.data += ...) on the property;
        # the buffer identity is preserved
        if tracing.active:
            tracing.touch(self)
        if value is not self._data:
            self._data[:] = np.asarray(value,
                                       dtype=self.dtype).reshape(self.dim)

    @property
    def value(self):
        """Scalar convenience accessor for ``dim == 1`` globals."""
        if self.dim != 1:
            raise ValueError("value is only defined for dim-1 globals")
        return self.data[0]

    def __repr__(self) -> str:
        return f"<Global {self.name!r} dim={self.dim} data={self._data!r}>"
