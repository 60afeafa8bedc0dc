"""Trail operations: levels, assignment lookup, backtracking, value cache."""

import pytest

from nials.errors import DuplicateAssignment
from nials.terms import Literal, Polynomial, Rel, Sort, TermStore
from nials.trail import Reason, Trail

P = Polynomial


@pytest.fixture
def setup():
    store = TermStore()
    x = store.new_var("x", Sort.INT)
    y = store.new_var("y", Sort.INT)
    z = store.new_var("z", Sort.INT)
    return store, x, y, z


def atom(store, poly, rel):
    return store.mk_atom(poly, rel, P.zero())


class TestLevels:
    def test_decisions_and_assignments_raise_level(self, setup):
        store, x, y, z = setup
        trail = Trail()
        assert trail.level == 0
        a = atom(store, P.var(z.id) * P.var(z.id) - P.const(2), Rel.LT)
        trail.push_propagation(Literal(False, atom=a), reason=None)
        assert trail.level == 0
        trail.push_model_assignment(x, 1, decision=True)
        assert trail.level == 1
        b = store.new_var("b", Sort.BOOL)
        trail.push_decision(Literal(True, bvar=b))
        assert trail.level == 2
        trail.push_model_assignment(y, 0, decision=False)
        assert trail.level == 2

    def test_duplicate_assignment_rejected(self, setup):
        store, x, y, z = setup
        trail = Trail()
        trail.push_model_assignment(x, 1, decision=True)
        with pytest.raises(DuplicateAssignment):
            trail.push_model_assignment(x, 2, decision=True)
        a = atom(store, P.var(y.id), Rel.EQ)
        trail.push_propagation(Literal(True, atom=a), reason=None)
        with pytest.raises(DuplicateAssignment):
            trail.push_propagation(Literal(False, atom=a), reason=None)


class TestValueLookup:
    def test_example_trail_values(self, setup):
        """The paper's three-clause walkthrough trail."""
        store, x, y, z = setup
        px, py, pz = (P.var(v.id) for v in (x, y, z))
        # x >= 1 as 1 - x <= 0; xy = 1; x + 2yz > 0 as -(x + 2yz) < 0;
        # z^2 > 1 as 1 - z^2 < 0.
        a_ge = atom(store, P.const(1) - px, Rel.LEQ)
        a_xy = atom(store, px * py - P.const(1), Rel.EQ)
        a_sum = atom(store, -(px + py * pz * P.const(2)), Rel.LT)
        a_z = atom(store, P.const(1) - pz * pz, Rel.LT)
        trail = Trail()
        trail.push_propagation(Literal(True, atom=a_z), reason=None)
        trail.push_model_assignment(x, 1, decision=True)
        trail.push_propagation(Literal(True, atom=a_ge), Reason.SEMANTIC)
        trail.push_propagation(Literal(True, atom=a_xy), reason=None)

        assert trail.value_of_var(x) == 1
        assert trail.value_of_var(y) is None
        assert trail.value_of_lit(Literal(True, atom=a_sum)) is None
        assert trail.value_of_lit(Literal(True, atom=a_z)) is True
        assert trail.value_of_lit(Literal(False, atom=a_xy)) is False

    def test_semantic_evaluation_without_assignment(self, setup):
        store, x, y, z = setup
        trail = Trail()
        trail.push_model_assignment(x, 3, decision=True)
        a = atom(store, P.var(x.id) - P.const(3), Rel.EQ)
        # Never Boolean-assigned, but fully evaluated by the model.
        assert trail.value_of_lit(Literal(True, atom=a)) is True
        assert trail.bool_value_of(Literal(True, atom=a)) is None


class TestBacktracking:
    def test_exact_undo_and_cache(self, setup):
        store, x, y, z = setup
        b = store.new_var("b", Sort.BOOL)
        trail = Trail()
        cache = {}
        trail.push_model_assignment(x, 5, decision=True)
        trail.push_decision(Literal(False, bvar=b))
        trail.push_model_assignment(y, -2, decision=False)
        snapshot = list(trail.elements[:1])
        removed = trail.backtrack_to(1, cache)
        assert len(removed) == 2
        assert removed[0].var == y  # most recent first
        assert removed[1].lit.bvar == b
        assert trail.level == 1
        assert trail.elements == snapshot
        assert trail.value_of_var(y) is None
        assert cache == {y.id: -2, b.id: False}

    def test_backtrack_to_current_level_is_noop(self, setup):
        store, x, y, z = setup
        trail = Trail()
        trail.push_model_assignment(x, 1, decision=True)
        assert trail.backtrack_to(1) == []
        assert trail.value_of_var(x) == 1

    def test_positions_are_stable(self, setup):
        store, x, y, z = setup
        trail = Trail()
        e1 = trail.push_model_assignment(x, 1, decision=True)
        e2 = trail.push_model_assignment(y, 2, decision=True)
        assert e1.pos == 0 and e2.pos == 1
        assert trail.var_elem[y.id].pos == 1
        trail.backtrack_to(1)
        e3 = trail.push_model_assignment(z, 3, decision=True)
        assert e3.pos == 1


class TestValueCache:
    def test_overwrite_keeps_latest(self, setup):
        store, x, y, z = setup
        trail = Trail()
        cache = {}
        for v in (4, 9):
            trail.push_model_assignment(x, v, decision=True)
            trail.backtrack_to(0, cache)
        assert cache == {x.id: 9}
