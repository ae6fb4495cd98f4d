"""AllSat tests (Algorithm 3's engine): cubes, models, counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BDDManager,
    all_models,
    any_model,
    count_cubes,
    iter_cubes,
    iter_models,
)


@pytest.fixture()
def manager():
    return BDDManager(["x", "y", "z"])


class TestCubes:
    def test_false_has_no_cubes(self, manager):
        assert list(iter_cubes(manager, manager.false)) == []

    def test_true_has_the_empty_cube(self, manager):
        assert list(iter_cubes(manager, manager.true)) == [{}]

    def test_or_gate_cubes(self, manager):
        f = manager.or_(manager.var("x"), manager.var("y"))
        cubes = list(iter_cubes(manager, f))
        # Paths: x=0,y=1 and x=1 (y is a don't-care on the second path).
        assert {tuple(sorted(c.items())) for c in cubes} == {
            (("x", False), ("y", True)),
            (("x", True),),
        }

    def test_count_cubes(self, manager):
        f = manager.xor(manager.var("x"), manager.var("y"))
        assert count_cubes(manager, f) == 2

    @given(table=st.lists(st.booleans(), min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_count_cubes_is_the_number_of_cubes(self, table):
        """The path-count DP against enumeration, on random functions of
        four variables and their complements (complement edges)."""
        names = ["a", "b", "c", "d"]
        manager = BDDManager(names)
        f = manager.disjoin(
            manager.conjoin(
                manager.var(name) if (row >> i) & 1 else manager.nvar(name)
                for i, name in enumerate(names)
            )
            for row, value in enumerate(table)
            if value
        )
        for u in (f, manager.negate(f)):
            assert count_cubes(manager, u) == len(list(iter_cubes(manager, u)))

    def test_cubes_are_lazy(self, manager):
        f = manager.or_(manager.var("x"), manager.var("y"))
        iterator = iter_cubes(manager, f)
        first = next(iterator)
        assert isinstance(first, dict)


class TestModels:
    def test_models_expand_dont_cares(self, manager):
        f = manager.var("x")
        models = all_models(manager, f, ["x", "y"])
        assert len(models) == 2
        assert all(m["x"] for m in models)
        assert {m["y"] for m in models} == {False, True}

    def test_models_respect_scope_order(self, manager):
        f = manager.var("y")
        for model in iter_models(manager, f, ["x", "y", "z"]):
            assert list(model) == ["x", "y", "z"]

    def test_fixed_values_filter_and_extend(self, manager):
        f = manager.or_(manager.var("x"), manager.var("y"))
        models = list(
            iter_models(manager, f, ["x", "y"], fixed={"x": False})
        )
        assert models == [{"x": False, "y": True}]

    def test_any_model(self, manager):
        f = manager.and_(manager.var("x"), manager.nvar("z"))
        model = any_model(manager, f, ["x", "y", "z"])
        assert model is not None
        assert model["x"] is True and model["z"] is False
        assert any_model(manager, manager.false, ["x"]) is None

    def test_model_count_matches_sat_count(self, manager):
        f = manager.or_(
            manager.and_(manager.var("x"), manager.var("y")), manager.var("z")
        )
        models = all_models(manager, f, ["x", "y", "z"])
        assert len(models) == manager.sat_count(f, ["x", "y", "z"])
        assert len({tuple(sorted(m.items())) for m in models}) == len(models)
