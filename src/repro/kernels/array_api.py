"""The array-API seam under the SLP kernels.

A schedule replay (:mod:`repro.kernels.slp`) never imports numpy
itself: every array it allocates and every array function it calls
comes from an :class:`ArrayBackend` handed in at call time.  The
default backend is plain numpy, but anything exposing ``empty``,
``zeros``, ``multiply`` and ``add`` with numpy semantics (``out=``
included) — a CuPy module, an array-api-compat namespace — slots in
without touching the replay: the door the roadmap leaves open to GPU
arrays.

The backend deliberately exposes only what a replay asks of it.  Row
gathers are the arrays' own ``take`` method and time powers their
``**`` operator, so those follow the input arrays' library
automatically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ArrayBackend",
    "NUMPY_BACKEND",
    "get_array_backend",
    "register_array_backend",
]


class ArrayBackend:
    """A named array namespace for schedule replays.

    Parameters
    ----------
    name:
        Registry key (``"numpy"`` is built in).
    xp:
        Module-like namespace providing ``empty``, ``zeros``,
        ``multiply`` and ``add`` with numpy calling conventions.
    """

    __slots__ = ("name", "xp")

    def __init__(self, name: str, xp) -> None:
        self.name = name
        self.xp = xp

    def __repr__(self) -> str:
        return f"ArrayBackend({self.name!r})"


NUMPY_BACKEND = ArrayBackend("numpy", np)

_REGISTRY = {"numpy": NUMPY_BACKEND}


def get_array_backend(name_or_backend=None) -> ArrayBackend:
    """Resolve ``None`` / a name / an :class:`ArrayBackend` instance."""
    if name_or_backend is None:
        return NUMPY_BACKEND
    if isinstance(name_or_backend, ArrayBackend):
        return name_or_backend
    try:
        return _REGISTRY[name_or_backend]
    except KeyError:
        raise ValueError(
            f"unknown array backend {name_or_backend!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def register_array_backend(backend: ArrayBackend) -> None:
    """Register an alternative array namespace (e.g. CuPy)."""
    _REGISTRY[backend.name] = backend
