"""Feasibility sets from unit constraints, with exact undo on backtracking."""

import pytest

from nials.feasibility import EmptyConflict, FeasibilityMap, Singleton
from nials.intervals import IntervalSet
from nials.terms import Literal, Polynomial, Rel, Sort, TermStore
from nials.trail import Trail

P = Polynomial


@pytest.fixture
def setup():
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    z = store.new_var("z", Sort.INT)
    return store, x, y, z


def unit(store, poly, rel, positive=True):
    return Literal(positive, atom=store.mk_atom(poly, rel, P.zero()))


class TestRestriction:
    def test_example_square_bound(self, setup):
        """z^2 > 1 over the integers narrows F(z) to (-inf,-2] u [2,inf)."""
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 1, decision=True)  # open level 1
        lit = unit(store, P.const(1) - P.var(z.id) * P.var(z.id), Rel.LT)
        res = feas.assert_unit_constraint(z, lit, trail)
        assert res is None
        assert feas.get(z.id) == IntervalSet.from_intervals(
            [(None, -2), (2, None)])

    def test_example_singleton_propagation(self, setup):
        """With x = 1 on the trail, the unit xy = 1 forces y into {1}."""
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 1, decision=True)
        lit = unit(store, P.var(x.id) * P.var(y.id) - P.const(1), Rel.EQ)
        res = feas.assert_unit_constraint(y, lit, trail)
        assert isinstance(res, Singleton)
        assert res.value == 1
        assert feas.get(y.id).singleton_value() == 1

    def test_negative_polarity_complements(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        lit = unit(store, P.var(y.id) - P.const(3), Rel.EQ, positive=False)
        feas.assert_unit_constraint(y, lit, trail)
        assert 3 not in feas.get(y.id)
        assert 2 in feas.get(y.id)

    def test_empty_conflict_carries_contributions(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        l1 = unit(store, P.var(y.id) - P.const(5), Rel.LEQ)   # y <= 5
        l2 = unit(store, P.const(7) - P.var(y.id), Rel.LEQ)   # y >= 7
        assert feas.assert_unit_constraint(y, l1, trail) is None
        res = feas.assert_unit_constraint(y, l2, trail)
        assert isinstance(res, EmptyConflict)
        assert res.var == y
        assert {c.lit.skey for c in res.contributions} == {l1.skey, l2.skey}

    def test_used_vars_recorded(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 2, decision=True)
        lit = unit(store, P.var(x.id) * P.var(y.id) - P.const(4), Rel.EQ)
        feas.assert_unit_constraint(y, lit, trail)
        (con,) = feas.contributions(y.id)
        assert con.used_vars == (x.id,)

    def test_level0_contributions_not_recorded(self, setup):
        # Root-level constraints are formula consequences; conflict
        # explanations never need to cite them.
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        lit = unit(store, P.var(y.id) - P.const(5), Rel.LEQ)
        assert feas.assert_unit_constraint(y, lit, trail) is None
        assert feas.contributions(y.id) == ()
        assert feas.get(y.id) == IntervalSet.range(None, 5)


class TestBacktracking:
    def test_exact_restore(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        l0 = unit(store, P.var(y.id) * P.var(y.id) - P.const(100), Rel.LEQ)
        feas.assert_unit_constraint(y, l0, trail)       # level 0
        before = feas.get(y.id)
        trail.push_model_assignment(x, 3, decision=True)
        l1 = unit(store, P.var(y.id) - P.var(x.id), Rel.LEQ)
        feas.assert_unit_constraint(y, l1, trail)       # level 1
        trail.push_model_assignment(z, 0, decision=True)
        l2 = unit(store, P.const(1) - P.var(y.id), Rel.LEQ)
        feas.assert_unit_constraint(y, l2, trail)       # level 2
        assert feas.get(y.id) == IntervalSet.range(1, 3)

        feas.backtrack_to(1)
        assert feas.get(y.id) == IntervalSet.range(-10, 3)
        assert len(feas.contributions(y.id)) == 1
        feas.backtrack_to(0)
        assert feas.get(y.id) == before
        assert feas.contributions(y.id) == ()

    def test_one_snapshot_per_level(self, setup):
        store, x, y, z = setup
        trail = Trail()
        feas = FeasibilityMap()
        trail.push_model_assignment(x, 0, decision=True)
        for c in (9, 7, 5):
            lit = unit(store, P.var(y.id) - P.const(c), Rel.LEQ)
            feas.assert_unit_constraint(y, lit, trail)
        assert feas.get(y.id) == IntervalSet.range(None, 5)
        feas.backtrack_to(0)
        assert feas.get(y.id) == IntervalSet.full()
