import operator

import numpy as np


class SolverError(RuntimeError):
    """Numerical or feasibility failure inside a solver.

    The CLI maps this to exit code 2; bad usage/inputs raise ValueError
    (exit code 1).
    """


def as_int(value, name: str) -> int:
    """``value`` as a Python int, numpy integers included; anything else
    (1.5, and 2.0 alike) raises a ValueError naming the field ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _typed_array(value, name: str, kinds: tuple, what: str, dtype) -> np.ndarray:
    """``value`` as an array of ``dtype``. An array whose dtype is of none
    of the ``kinds`` raises a ValueError naming the field ``name``, unless
    it is empty: an empty table has no entries, and JSON's ``[]`` no dtype."""
    a = np.asarray(value)
    if a.size and not any(np.issubdtype(a.dtype, kind) for kind in kinds):
        raise ValueError(f"{name} must hold {what}, got {a.ravel()[:1].tolist()[0]!r} (dtype {a.dtype})")
    return a.astype(dtype, copy=False)


def as_int_array(value, name: str) -> np.ndarray:
    """``value`` as an int64 array; floats (2.0 alike) and strings raise
    (:func:`_typed_array`)."""
    return _typed_array(value, name, (np.integer,), "integers", np.int64)


def as_float_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array of integers or floats; strings (numeric
    ones and "inf" alike), booleans and objects raise
    (:func:`_typed_array`)."""
    return _typed_array(value, name, (np.integer, np.floating), "numbers", np.float64)


def check_shape(name: str, got: tuple, shape: tuple, dims: dict) -> None:
    """Checks the array shape ``got`` of the field ``name`` against
    ``shape``, a tuple of dimension names. A dimension not yet in ``dims``
    takes its size from the first array of the right rank that has it; a
    mismatch raises a ValueError naming the field, with a dimension not
    yet sized left as its name."""
    if len(got) == len(shape):
        for dim, size in zip(shape, got):
            dims.setdefault(dim, size)
    expected = tuple(dims.get(dim, dim) for dim in shape)
    if got != expected:
        want = str(expected).replace("'", "")
        raise ValueError(f"{name} has shape {got}, expected {want}")
