"""Clausification: equisatisfiability, clause-form pass-through, NNF."""

import hashlib
import random

from helpers import assignments, clauses_sat
from nials import formula_ast as fa
from nials import smtlib
from nials.clausify import clausify
from nials.terms import Literal, Polynomial, Rel, Sort, TermStore

P = Polynomial


def setup_vars(store, n_int=2, n_bool=2):
    ints = [store.new_var(f"x{i}", Sort.INT) for i in range(n_int)]
    bools = [store.new_var(f"b{i}", Sort.BOOL) for i in range(n_bool)]
    return ints, bools


def random_expr(rng, store, ints, bools, depth, constants=False):
    """Random structure; with ``constants``, leaves may be TRUE or FALSE."""
    if depth == 0 or rng.random() < 0.3:
        if constants and rng.random() < 0.2:
            return rng.choice((fa.TRUE, fa.FALSE))
        if rng.random() < 0.4:
            leaf = Literal(True, bvar=rng.choice(bools))
        else:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                v = rng.choice(ints)
                m = ((v.id, rng.randint(1, 2)),)
                terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
            terms[()] = rng.randint(-4, 4)
            atom = store.mk_atom(Polynomial(terms),
                                 rng.choice((Rel.EQ, Rel.NEQ, Rel.LEQ, Rel.LT)),
                                 P.zero())
            leaf = Literal(True, atom=atom)
        return fa.mk_not(leaf) if rng.random() < 0.5 else leaf
    kind = rng.random()
    args = [random_expr(rng, store, ints, bools, depth - 1, constants)
            for _ in range(rng.randint(2, 3))]
    if kind < 0.4:
        return fa.mk_and(args)
    if kind < 0.8:
        return fa.mk_or(args)
    if kind < 0.9:
        return fa.mk_not(args[0])
    return fa.mk_ite(args[0], args[1], args[-1])


def expr_sat(ast, ints, bools, lo=-3, hi=3):
    for iv, bv in assignments(ints, lo, hi, bools):
        if fa.evaluate(ast, {**iv, **bv}):
            return True
    return False


def formula_sat(formula, store, lo=-3, hi=3):
    ints = [v for v in formula.variables if v.sort is Sort.INT]
    bools = [v for v in formula.variables if v.sort is Sort.BOOL]
    for iv, bv in assignments(ints, lo, hi, bools):
        if clauses_sat(formula.clauses, iv, bv):
            return True
    return False


class TestStructure:
    def test_clause_form_passes_through(self):
        store = TermStore()
        ints, bools = setup_vars(store)
        a = Literal(True, atom=store.mk_atom(P.var(ints[0].id), Rel.LEQ, P.zero()))
        b = Literal(True, bvar=bools[0])
        ast = fa.mk_and([fa.mk_or([a, fa.mk_not(b)]), b])
        formula = clausify(store, ast)
        assert len(formula.clauses) == 2
        assert not any(v.is_aux for v in formula.variables)

    def test_nested_structure_gets_definitions(self):
        store = TermStore()
        ints, bools = setup_vars(store)
        b0, b1 = (Literal(True, bvar=v) for v in bools)
        inner = fa.mk_and([b0, b1])
        ast = fa.mk_or([inner, fa.mk_not(b0)])
        formula = clausify(store, ast)
        assert any(v.is_aux for v in formula.variables)

    def test_equal_nodes_share_one_definition(self):
        def clausified(separately):
            store = TermStore()
            _, bools = setup_vars(store, 0, 3)
            b0, b1, b2 = (Literal(True, bvar=v) for v in bools)

            def build():
                return fa.mk_and([b0, fa.mk_or([b1, fa.mk_and([b2, b0])])])

            first = build()
            second = build() if separately else first
            assert first == second
            assert (first is second) != separately
            hash(first)     # kept on `first`, not yet on `second`
            assert hash(first) == hash(second)
            return clausify(store, fa.mk_and([fa.mk_or([first, b2]),
                                              fa.mk_or([second, b1])]))

        shared, separate = clausified(False), clausified(True)
        skeys = lambda f: [[lit.skey for lit in c] for c in f.clauses]
        assert skeys(separate) == skeys(shared)
        # One definition each for the node, its inner Or and that Or's And.
        assert sum(v.is_aux for v in separate.variables) == 3

    def test_constants(self):
        store = TermStore()
        assert clausify(store, fa.TRUE).clauses == []
        f = clausify(store, fa.FALSE)
        assert any(not c.literals for c in f.clauses)

    def test_tautology_dropped(self):
        store = TermStore()
        _, bools = setup_vars(store, 0, 1)
        b = Literal(True, bvar=bools[0])
        formula = clausify(store, fa.mk_or([b, fa.mk_not(b)]))
        assert formula.clauses == []


def check_equisatisfiable(seed, count, constants):
    rng = random.Random(seed)
    for _ in range(count):
        store = TermStore()
        ints, bools = setup_vars(store)
        ast = random_expr(rng, store, ints, bools, rng.randint(1, 3), constants)
        formula = clausify(store, ast)
        assert expr_sat(ast, ints, bools) == formula_sat(formula, store)


def check_models_project_back(seed, count, constants):
    """Number of clause-set models found, each checked on the source."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        store = TermStore()
        ints, bools = setup_vars(store)
        ast = random_expr(rng, store, ints, bools, 2, constants)
        formula = clausify(store, ast)
        f_ints = [v for v in formula.variables if v.sort is Sort.INT]
        f_bools = [v for v in formula.variables if v.sort is Sort.BOOL]
        for iv, bv in assignments(f_ints, -2, 2, f_bools):
            if clauses_sat(formula.clauses, iv, bv):
                full = {**iv, **bv}
                for v in ints:
                    full.setdefault(v.id, 0)
                for v in bools:
                    full.setdefault(v.id, True)
                assert fa.evaluate(ast, full)
                checked += 1
                break
    return checked


class TestEquisatisfiability:
    def test_randomized(self):
        check_equisatisfiable(11, 120, constants=False)

    def test_randomized_with_constants(self):
        check_equisatisfiable(13, 150, constants=True)

    def test_models_project_back(self):
        # Any clause-set model restricted to original variables satisfies
        # the source expression (full-equivalence definitions).
        assert check_models_project_back(12, 60, constants=False) > 10

    def test_models_project_back_with_constants(self):
        assert check_models_project_back(14, 80, constants=True) > 10


def subterms(node):
    """Every node of a structure, the root first."""
    yield node
    if isinstance(node, (fa.And, fa.Or)):
        for a in node.args:
            yield from subterms(a)
    elif isinstance(node, fa.Ite):
        for a in (node.cond, node.then, node.els):
            yield from subterms(a)


def compiled(text):
    """The structure `smtlib.solve` clausifies for a script, and its store."""
    comp = smtlib.compile_script(smtlib.parse(text))
    return fa.mk_and(comp.assertions + comp.side), comp.store


NNF_SCRIPTS = [
    "(declare-const a Int)(declare-const p Bool)(declare-const q Bool)"
    "(assert (not (and p (or false (> a 0)) (not (=> q true)))))"
    "(assert (ite (xor p true) (= q false) (not (ite q p false))))",
    "(declare-const p Bool)(assert (not (and p (not (and p (not p))))))",
    "(declare-const p Bool)(assert (or p true))",
    "(declare-const p Bool)(assert (and p (not true)))",
]


class TestNegationNormalForm:
    def structures(self):
        rng = random.Random(21)
        for _ in range(150):
            store = TermStore()
            ints, bools = setup_vars(store)
            yield random_expr(rng, store, ints, bools, 3, constants=True), ints, bools
        for text in NNF_SCRIPTS:
            ast, store = compiled(text)
            ints = [v for v in store.variables if v.sort is Sort.INT]
            bools = [v for v in store.variables if v.sort is Sort.BOOL]
            yield ast, ints, bools

    def test_constants_only_at_root(self):
        for ast, _, _ in self.structures():
            for node in list(subterms(ast))[1:]:
                assert isinstance(node, (Literal, fa.And, fa.Or, fa.Ite)), node

    def test_double_negation_is_identity(self):
        for ast, _, _ in self.structures():
            for node in subterms(ast):
                back = fa.mk_not(fa.mk_not(node))
                if isinstance(node, Literal):
                    assert back == node
                else:
                    assert back is node

    def test_negation_flips_truth(self):
        for ast, ints, bools in self.structures():
            neg = fa.mk_not(ast)
            for iv, bv in assignments(ints, -1, 1, bools):
                values = {**iv, **bv}
                assert fa.evaluate(neg, values) != fa.evaluate(ast, values)

    def test_ite_folds_constants(self):
        store = TermStore()
        _, (p, q) = setup_vars(store, 0, 2)
        c, x = Literal(True, bvar=p), Literal(True, bvar=q)
        assert fa.mk_ite(fa.TRUE, c, x) == c
        assert fa.mk_ite(fa.FALSE, c, x) == x
        assert fa.mk_ite(c, fa.TRUE, x) == fa.Or((c, x))
        assert fa.mk_ite(c, fa.FALSE, x) == fa.And((c.negate(), x))
        assert fa.mk_ite(c, x, fa.TRUE) == fa.Or((c.negate(), x))
        assert fa.mk_ite(c, x, fa.FALSE) == fa.And((c, x))
        assert fa.mk_ite(c, fa.TRUE, fa.FALSE) == c
        assert fa.mk_ite(c, fa.FALSE, fa.FALSE) is fa.FALSE

    def test_deep_negation_chain(self):
        # (not (and b (not (and b ... b)))): one Or or And node and one
        # literal per level, alternating, with no negation left over.
        depth = 150
        text = ("(declare-const b Bool)(assert "
                + "(not (and b " * depth + "b" + "))" * depth + ")")
        ast, _ = compiled(text)
        nodes = [n for n in subterms(ast) if not isinstance(n, Literal)]
        assert len(nodes) == depth
        assert all(isinstance(n, fa.Or if i % 2 == 0 else fa.And)
                   for i, n in enumerate(nodes))


class TestNodes:
    """Nodes are values: equality and hash follow class and fields."""

    def literals(self):
        store = TermStore()
        _, bools = setup_vars(store, 0, 3)
        return [Literal(True, bvar=v) for v in bools]

    def test_independent_trees_equal(self):
        a, b, c = self.literals()

        def build():
            return fa.Ite(c, fa.And((a, fa.Or((b, c.negate())))),
                          fa.Or((a.negate(), fa.BConst(False))))

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert fa.BConst(True) == fa.TRUE
        assert hash(fa.BConst(True)) == hash(fa.TRUE)
        assert fa.TRUE != fa.FALSE
        assert first != fa.Ite(c, first.then, fa.Or((a.negate(), b)))

    def test_class_is_part_of_equality(self):
        a, b, _ = self.literals()
        assert fa.And((a, b)) != fa.Or((a, b))
        assert fa.And((a,)) != a and a != fa.And((a,))

    def test_repr_names_fields(self):
        a, b, c = self.literals()
        assert repr(fa.Or((a, b.negate()))) == "Or(args=(b0, ~b1))"
        assert repr(fa.Ite(a, b, c)) == "Ite(cond=b0, then=b1, els=b2)"
        assert repr(fa.FALSE) == "BConst(value=False)"


def clause_digest(formulas):
    """SHA-256 over clause skeys and variable ids and names."""
    h = hashlib.sha256()
    for f in formulas:
        h.update(repr(([[lit.skey for lit in c.literals] for c in f.clauses],
                       [(v.id, v.name) for v in f.variables])).encode())
    return h.hexdigest()


def random_formulas(seed, count, depth=None):
    rng = random.Random(seed)
    for _ in range(count):
        store = TermStore()
        ints, bools = setup_vars(store)
        d = rng.randint(1, 3) if depth is None else depth
        yield clausify(store, random_expr(rng, store, ints, bools, d))


PINNED_SCRIPTS = [
    "(declare-const a Int)(declare-const b Int)"
    "(declare-const p Bool)(declare-const q Bool)"
    "(assert (let ((s (+ a b)) (r (and p q))) (or r (> (* s s) 4))))"
    "(assert (=> p (= a (ite q b (- b 1)))))"
    "(assert (xor p q (< a 0)))"
    "(assert (distinct a b 3))"
    "(assert (ite (= p (> b a)) (distinct q p) (not (and q (<= a 2)))))"
    "(assert (not (or (and p (= a 1)) (and (not q) (= b 2)))))"
    "(assert (=> (and p (or q (> a b))) (xor q (ite p (= a 0) (> b 0)))))",
    "(declare-const x Int)(declare-const p Bool)"
    "(assert (let ((c (> x 2))) (ite c (or p (= x 5)) (and (not p) (< x 0)))))"
    "(assert (distinct p (let ((d (* x x))) (>= d 9))))",
]


class TestPinnedClausification:
    """Clause lists recorded before negation normal form moved into the
    constructors; a rewrite of the frontend must reproduce them exactly."""

    def test_random_expressions(self):
        assert clause_digest(random_formulas(11, 120)) == (
            "fb34d72eb0c8eb2e2a31b309228a9d6daba1dfdfcef623f790643268f43c1cae")
        assert clause_digest(random_formulas(12, 60, depth=2)) == (
            "bc7cf2a286d6882939c553bafa1326b7420d31fa0fd36b44a35f901660d96e18")
        assert clause_digest(random_formulas(99, 200)) == (
            "518ca8cf090857a55052950ce347f2562efaaefa166fa6846a34f8dfaa9aa784")

    def test_scripts(self):
        formulas = [clausify(store, ast)
                    for ast, store in map(compiled, PINNED_SCRIPTS)]
        assert clause_digest(formulas) == (
            "6a9acb83daa10f42603164ec58088ec63d82554d9b09cb5cb32f5cb575ae0004")
