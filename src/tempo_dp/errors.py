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


def _symmetric(A: np.ndarray) -> bool:
    """Whether a finite (N, n, n) stack passes allclose's own test against
    its transpose, |A - A'| <= 1e-12 + 1e-12 |A'|, in blocks of about 2^15
    entries, whose temporaries stay in cache: on a (500, 32, 32) stack the
    whole-stack test takes three times as long."""
    nb = max(1, (1 << 15) // max(1, A.shape[-1] ** 2))
    for i in range(0, len(A), nb):
        a, at = A[i : i + nb], np.swapaxes(A[i : i + nb], -1, -2)
        if not (np.abs(a - at) <= 1e-12 + 1e-12 * np.abs(at)).all():
            return False
    return True


# A field table declares the fields of one problem dataclass, a row each:
# (field, key in problem files, shape in dimension names, kind, optional).
# A scalar has shape (). The kinds: "int", integers; "index", integers,
# 1-based on disk; "float", finite numbers; "sym", floats whose trailing
# square matrices are symmetric; "cost", numbers or +inf, "inf" on disk. An
# optional field may be None in memory and missing from a file.


def _array(name: str, value, shape: tuple, kind: str, dims: dict) -> np.ndarray:
    """``value`` as an int64 ("index") or float64 array, copying none of that
    dtype. A nonempty one (JSON's [] has no dtype) must hold integers, or for
    a float kind also floats: not strings, "inf" among them, booleans or
    objects. JSON keeps an array's axes up to its first empty one, so an
    empty array takes the axes it lacks from ``dims``, where all are known."""
    a = np.asarray(value)
    kinds, what = ((np.integer,), "integers") if kind == "index" else ((np.integer, np.floating), "numbers")
    if a.size and not any(np.issubdtype(a.dtype, k) for k in kinds):
        raise ValueError(f"{name} must hold {what}, got {a.ravel()[:1].tolist()[0]!r} (dtype {a.dtype})")
    a = a.astype(np.int64 if kind == "index" else np.float64, copy=False)
    lost = shape[a.ndim :]
    if a.size == 0 and lost and all(dim in dims for dim in lost):
        a = a.reshape(a.shape + tuple(dims[dim] for dim in lost))
    return a


def check_fields(obj, table: tuple, dims=None) -> None:
    """Casts and checks, in place, the fields of the frozen dataclass ``obj``
    that ``table`` declares; a ValueError names the first that fails. The
    scalars come first (:func:`as_int`); then ``dims()``, where given, runs
    the type's own rules on them and returns the sizes they fix. Each array
    is then cast (:func:`_array`) and checked for shape, a dimension not yet
    sized taking the size of the first array of its rank that has it; then
    for finiteness (+inf allowed in a "cost") and symmetry."""
    for name, _, shape, _, _ in table:
        if shape == ():
            object.__setattr__(obj, name, as_int(getattr(obj, name), name))
    sizes = dims() if dims else {}
    for name, _, shape, kind, optional in table:
        a = getattr(obj, name)
        if shape == () or (a is None and optional):
            continue
        a = _array(name, a, shape, kind, sizes)
        if a.ndim == len(shape):
            for dim, size in zip(shape, a.shape):
                sizes.setdefault(dim, size)
        expected = tuple(sizes.get(dim, dim) for dim in shape)
        if a.shape != expected:
            want = str(expected).replace("'", "")
            raise ValueError(f"{name} has shape {a.shape}, expected {want}")
        if kind == "cost" and not (a > -np.inf).all():  # NaN compares false too
            raise ValueError(f"{name} holds NaN or -inf; costs must be finite or +inf")
        if kind in ("float", "sym") and not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        if kind == "sym" and not _symmetric(a[None] if a.ndim == 2 else a):
            raise ValueError(f"{name} must be symmetric")
        object.__setattr__(obj, name, a)


def fields_to_dict(obj, table: tuple) -> dict:
    """The fields of ``obj`` under their file keys in table order, as ints
    and nested lists; a None optional field is left out."""
    d = {}
    for name, key, _, kind, _ in table:
        value = getattr(obj, name)
        if kind == "cost":
            value = np.where(value == np.inf, "inf", value.astype(object))
        if value is not None:
            d[key] = np.asarray(value + 1 if kind == "index" else value).tolist()
    return d


def _costs_read(value):
    """Nested cost lists with +inf for the strings that spell it; any other
    string raises."""
    if isinstance(value, list):
        return [_costs_read(v) for v in value]
    if isinstance(value, str) and value.lower() not in ("inf", "infinity", "+inf"):
        raise ValueError(f"bad cost entry {value!r}")
    return np.inf if isinstance(value, str) else value


def fields_from_dict(table: tuple, d: dict, dims: dict | None = None) -> dict:
    """The inverse of :func:`fields_to_dict`: constructor arguments cast as
    :func:`check_fields` casts them, empty arrays taking the axes ``dims``
    (the sizes a file declares) knows. A missing required key raises KeyError."""
    args = {}
    for name, key, shape, kind, optional in table:
        if key in d or not optional:
            value = _costs_read(d[key]) if kind == "cost" else d[key]
            value = as_int(value, name) if shape == () else _array(name, value, shape, kind, dims or {})
            args[name] = value - 1 if kind == "index" else value
    return args
