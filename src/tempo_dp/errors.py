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


def as_int_array(value, name: str) -> np.ndarray:
    """``value`` as an int64 array. An array of any other dtype (floats,
    2.0 alike, and strings) raises a ValueError naming the field ``name``,
    unless it is empty: an empty table has no entries, and JSON's ``[]``
    no dtype."""
    a = np.asarray(value)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got {a.flat[0].item()!r} (dtype {a.dtype})")
    return a.astype(np.int64, copy=False)
