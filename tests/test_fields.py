"""The field tables of the problem types: each declares every array and
integer field of its dataclass once (errors.check_fields), so a field added
later cannot skip validation or the file format."""

from dataclasses import fields

import pytest

from tempo_dp import finite_dp, lqt, nonlinear


@pytest.mark.parametrize(
    "module, cls",
    [(lqt, lqt.LqtProblem), (finite_dp, finite_dp.FiniteProblem), (nonlinear, nonlinear.NonlinearProblem)],
    ids=["LqtProblem", "FiniteProblem", "NonlinearProblem"],
)
def test_table_declares_every_data_field_once(module, cls):
    data = [f.name for f in fields(cls) if "Callable" not in str(f.type)]
    names = [row[0] for row in module._FIELDS]
    keys = [row[1] for row in module._FIELDS]
    assert sorted(names) == sorted(data)
    assert len(set(keys)) == len(keys)
