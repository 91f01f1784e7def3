"""Dependency gate for the vectorized (structure-of-arrays) kernels.

The SoA kernels (:mod:`repro.gpu.tilestream`, ``DRAM.request_batch``,
the array rasterizer) lean on numpy
behaviour that has been stable for a long time — ``np.unique`` with
``return_index``, stable ``argsort``, boolean ``out=`` ufuncs,
``take_along_axis`` — but they construct every array with explicit
dtypes precisely so the results do not depend on promotion-rule changes
between numpy 1.x and 2.x.  :data:`NUMPY_FLOOR` is the oldest release
the parity suite is validated against (and the floor declared in
``pyproject.toml``); anything older fails fast here with the remedy in
the message instead of deep inside a sweep.
"""

from __future__ import annotations

from .errors import DependencyError

#: Oldest numpy (major, minor) the kernels are validated against.
NUMPY_FLOOR = (1, 21)


def _version_tuple(version: str) -> tuple:
    """Leading numeric components of a version string (best effort)."""
    parts = []
    for field in version.split(".")[:2]:
        digits = ""
        for ch in field:
            if not ch.isdigit():
                break
            digits += ch
        if not digits:
            break
        parts.append(int(digits))
    return tuple(parts)


def require_numpy():
    """Import and return numpy, enforcing :data:`NUMPY_FLOOR`.

    Raises :class:`~repro.errors.DependencyError` (a
    :class:`ReproError`) when numpy is absent or too old, naming the
    floor and the install remedy.
    """
    try:
        import numpy
    except ImportError as exc:
        raise DependencyError(
            "numpy is required by the vectorized simulation kernels "
            f"(install numpy>={NUMPY_FLOOR[0]}.{NUMPY_FLOOR[1]})"
        ) from exc
    found = _version_tuple(numpy.__version__)
    if found and found < NUMPY_FLOOR:
        raise DependencyError(
            f"numpy {numpy.__version__} is below the "
            f"{NUMPY_FLOOR[0]}.{NUMPY_FLOOR[1]} floor required by the "
            "vectorized simulation kernels; upgrade with "
            f"'pip install numpy>={NUMPY_FLOOR[0]}.{NUMPY_FLOOR[1]}'")
    return numpy
