import operator


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
