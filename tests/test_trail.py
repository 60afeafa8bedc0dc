"""Trail operations: levels, assignment lookup, backtracking, value cache."""

import random

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

        assert trail.values[x.id] == 1
        assert y.id not in trail.values
        assert trail.value_of_lit(Literal(True, atom=a_sum)) is None
        assert trail.value_of_lit(Literal(True, atom=a_z)) is True
        assert trail.value_of_lit(Literal(False, atom=a_xy)) is False

    def test_no_entry_no_truth(self, setup):
        """An atom over assigned variables has no truth without its entry:
        the trail never evaluates it."""
        store, x, y, z = setup
        trail = Trail()
        trail.push_model_assignment(x, 3, decision=True)
        a = atom(store, P.var(x.id) - P.const(3), Rel.EQ)
        assert trail.value_of_lit(Literal(True, atom=a)) is None


class TestBacktracking:
    def test_exact_undo_and_cache(self, setup):
        store, x, y, z = setup
        b = store.new_var("b", Sort.BOOL)
        trail = Trail()
        trail.push_model_assignment(x, 5, decision=True)
        trail.push_decision(Literal(False, bvar=b))
        trail.push_model_assignment(y, -2, decision=False)
        snapshot = list(trail.elements[:1])
        removed = trail.backtrack_to(1)
        assert removed == [y.id, b.id]  # most recent first
        assert trail.level == 1
        assert trail.elements == snapshot
        assert y.id not in trail.values
        assert trail.cache == {y.id: -2, b.id: False}

    def test_backtrack_to_current_level_is_noop(self, setup):
        store, x, y, z = setup
        trail = Trail()
        trail.push_model_assignment(x, 1, decision=True)
        assert trail.backtrack_to(1) == []
        assert trail.values[x.id] == 1

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
        for v in (4, 9):
            trail.push_model_assignment(x, v, decision=True)
            trail.backtrack_to(0)
        assert trail.cache == {x.id: 9}


class TestIndexesFollowTheElements:
    def replay(self, elements):
        """`values`, `lit_elem` (by element identity) and `var_elem` as the
        element list alone defines them."""
        values, lit_elem, var_elem = {}, {}, {}
        for e in elements:
            if e.var is not None:
                values[e.var.id] = e.value
                var_elem[e.var.id] = id(e)
            else:
                lit_elem[e.lit.key] = id(e)
                if e.lit.bvar is not None:
                    values[e.lit.bvar.id] = e.lit.positive
        return values, lit_elem, var_elem

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences(self, setup, seed):
        """Bool and Int decisions, atom and Bool propagations, model
        assignments and backtracks in a seeded random order; after every
        step the indexes equal a replay of the elements, and the cache
        holds each undone variable's last value or phase."""
        store, x, y, z = setup
        rng = random.Random(seed)
        ints = [x, y, z]
        bools = [store.new_var(f"b{i}", Sort.BOOL) for i in range(4)]
        atoms = [atom(store, P.var(v.id) - P.const(c), rel)
                 for v in ints for c, rel in ((0, Rel.LEQ), (2, Rel.EQ))]
        trail = Trail()
        cache = {}
        for _ in range(80):
            open_ints = [v for v in ints if v.id not in trail.values]
            open_bools = [b for b in bools if b.id not in trail.values]
            open_atoms = [a for a in atoms if a.key not in trail.lit_elem]
            kind = rng.choice(["bool-decision", "int-decision", "atom",
                               "bool-propagation", "assignment",
                               "backtrack"])
            if kind == "backtrack":
                level = rng.randint(0, trail.level)
                cut = len(trail.elements)
                if level < trail.level:
                    cut = next(e.pos for e in trail.elements
                               if e.level > level)
                undone = []
                for e in reversed(trail.elements[cut:]):
                    if e.var is not None:
                        undone.append(e.var.id)
                        cache[e.var.id] = e.value
                    elif e.lit.bvar is not None:
                        undone.append(e.lit.bvar.id)
                        cache[e.lit.bvar.id] = e.lit.positive
                assert trail.backtrack_to(level) == undone
                assert len(trail.elements) == cut
            elif kind in ("bool-decision", "bool-propagation") and open_bools:
                lit = Literal(rng.random() < 0.5, bvar=rng.choice(open_bools))
                if kind == "bool-decision":
                    trail.push_decision(lit)
                else:
                    trail.push_propagation(lit, reason=None)
            elif kind in ("int-decision", "assignment") and open_ints:
                trail.push_model_assignment(
                    rng.choice(open_ints), rng.randint(-3, 3),
                    decision=kind == "int-decision")
            elif kind == "atom" and open_atoms:
                trail.push_propagation(
                    Literal(rng.random() < 0.5, atom=rng.choice(open_atoms)),
                    Reason.SEMANTIC)
            values, lit_elem, var_elem = self.replay(trail.elements)
            assert trail.values == values
            assert {k: id(e) for k, e in trail.lit_elem.items()} == lit_elem
            assert {k: id(e) for k, e in trail.var_elem.items()} == var_elem
            assert [e.pos for e in trail.elements] == list(
                range(len(trail.elements)))
            assert trail.cache == cache
