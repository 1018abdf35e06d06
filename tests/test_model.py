import itertools
import random
import time

from ontorewrite.model import (Atom, ConjunctiveQuery, VAR, atom,
                               canonical_rename, connected_components, const,
                               core, find_homomorphism, make_query, mgu,
                               subst_atom, subst_query, var)

A, B, C, X, Y, Z = (var(n) for n in "ABCXYZ")
a, b, db = const("a"), const("b"), const("db")


def compose(s1, s2):
    """The substitution equivalent to applying s1 first, then s2."""
    out = {}
    for k, v in s1.items():
        w = s2.get(v, v)
        if w != k:
            out[k] = w
    for k, v in s2.items():
        if k not in s1 and v != k:
            out[k] = v
    return out


def test_apply_rewriting_step_substitution():
    sub = {X: B, Y: db, Z: A}
    got = subst_atom(sub, atom("hasCollaborator", Z, Y, X))
    assert got == atom("hasCollaborator", A, db, B)


def test_apply_empty_substitution_is_identity():
    q = make_query("p", [A], [atom("r", A, B)])
    assert subst_query({}, q) == q
    assert subst_atom({}, atom("r", A, B)) == atom("r", A, B)


def test_apply_constant_instantiation():
    assert subst_atom({A: a}, atom("p", A, A)) == atom("p", a, a)


def test_apply_respects_composition():
    rng = random.Random(7)
    terms = [A, B, C, X, Y, a, b]
    for _ in range(100):
        s1 = {v: rng.choice(terms) for v in rng.sample([A, B, C, X, Y], 3)}
        s2 = {v: rng.choice(terms) for v in rng.sample([A, B, C, X, Y], 3)}
        at = Atom("r", tuple(rng.choice(terms) for _ in range(3)))
        assert subst_atom(s2, subst_atom(s1, at)) == \
            subst_atom(compose(s1, s2), at)


def test_connected_components_group_by_linked_terms_in_first_atom_order():
    body = [atom("r", A, B), atom("s", C), atom("t", X, a), atom("r", C, Y),
            atom("u", a), atom("s", Y, X), atom("v", Z, B)]
    is_var = lambda t: t.kind == VAR
    assert connected_components(body, is_var) == [
        (atom("r", A, B), atom("v", Z, B)),
        (atom("s", C), atom("t", X, a), atom("r", C, Y), atom("s", Y, X)),
        (atom("u", a),)]
    # only the linked terms join atoms: here the constant a, not B or Y
    assert connected_components(body, {a}.__contains__) == [
        (atom("r", A, B),), (atom("s", C),), (atom("t", X, a), atom("u", a)),
        (atom("r", C, Y),), (atom("s", Y, X),), (atom("v", Z, B),)]
    assert connected_components([], is_var) == []


def test_mgu_rewriting_step_example():
    got = mgu([atom("hasCollaborator", A, db, B),
               atom("hasCollaborator", Z, Y, X)], preferred=frozenset([A, B]))
    assert got == {Z: A, Y: db, X: B}


def test_mgu_prefers_constants():
    got = mgu([atom("t", a, A, C), atom("t", B, a, C)])
    assert got == {A: a, B: a}


def test_mgu_constant_clash():
    assert mgu([atom("p", a, X), atom("p", b, Y)]) is None


def test_mgu_idempotent():
    atoms = [atom("r", A, B, C), atom("r", X, X, Y)]
    sub = mgu(atoms)
    assert sub is not None
    once = [subst_atom(sub, at) for at in atoms]
    twice = [subst_atom(sub, at) for at in once]
    assert once == twice
    assert len({tuple(x.args) for x in once}) == 1


def _brute_force_unifiers(atoms, universe):
    """Every substitution over the atoms' variables into `universe` that
    unifies them (small-universe oracle)."""
    vs = sorted({t for at in atoms for t in at.args if t.kind == VAR},
                key=lambda t: t.name)
    for combo in itertools.product(universe, repeat=len(vs)):
        sub = dict(zip(vs, combo))
        images = {subst_atom(sub, at) for at in atoms}
        if len(images) == 1:
            yield sub


def test_mgu_generality_against_enumerated_unifiers():
    rng = random.Random(13)
    terms = [A, B, C, X, a]
    for _ in range(60):
        atoms = [Atom("r", tuple(rng.choice(terms) for _ in range(2)))
                 for _ in range(2)]
        general = mgu(atoms)
        universe = [a, b, A, B, C, X]
        brute = list(_brute_force_unifiers(atoms, universe))
        if general is None:
            assert brute == []
            continue
        # every unifier factors through the mgu: u = theta . mgu
        for u in brute:
            image = [subst_atom(compose(general, u), at) for at in atoms]
            direct = [subst_atom(u, at) for at in atoms]
            assert image == direct


def test_find_homomorphism_subset_embedding():
    got = find_homomorphism([atom("p_1", A)], [atom("p_1", A), atom("p_2", B)])
    assert got == {A: A}


def test_find_homomorphism_collapses_chain():
    got = find_homomorphism([atom("r", A, B), atom("r", B, C)], [atom("r", a, a)])
    assert got == {A: a, B: a, C: a}


def test_find_homomorphism_reflexivity_unsatisfiable():
    assert find_homomorphism([atom("r", A, A)], [atom("r", a, b)]) is None


def _brute_force_hom(src, dst, fixed_head=None):
    vs = sorted({t for at in src for t in at.args if t.kind == VAR},
                key=lambda t: t.name)
    if fixed_head:
        vs = sorted(set(vs) | {t for t in fixed_head[0].args if t.kind == VAR},
                    key=lambda t: t.name)
    universe = sorted({t for at in dst for t in at.args}
                      | ({t for t in fixed_head[1].args} if fixed_head else set()))
    targets = set(dst)
    for combo in itertools.product(universe, repeat=len(vs)):
        sub = dict(zip(vs, combo))
        if fixed_head and subst_atom(sub, fixed_head[0]) != fixed_head[1]:
            continue
        if all(subst_atom(sub, at) in targets for at in src):
            return True
    return not src and not fixed_head


def test_find_homomorphism_matches_brute_force():
    """Also the way `subsumes` calls it: a fixed head, and variables in dst,
    some sharing names with variables of src."""
    rng = random.Random(29)
    dst_terms = [a, b, const("c"), A, X, var("W")]
    for i in range(300):
        n_src = rng.randint(1, 3)
        src = [Atom(rng.choice(["r", "s"]),
                    tuple(rng.choice([A, B, C, X, Y]) for _ in range(2)))
               for _ in range(n_src)]
        pool = dst_terms if i % 2 else dst_terms[:3]
        dst = [Atom(rng.choice(["r", "s"]),
                    tuple(rng.choice(pool) for _ in range(2)))
               for _ in range(rng.randint(1, 6))]
        fixed_head = None
        if i % 3:
            head_vars = sorted({t for at in src for t in at.args})
            h1 = Atom("q", tuple(rng.sample(head_vars,
                                            rng.randint(0, min(2, len(head_vars))))))
            h2 = Atom("q", tuple(rng.choice(pool) for _ in h1.args))
            fixed_head = (h1, h2)
        got = find_homomorphism(src, dst, fixed_head)
        expect = _brute_force_hom(src, dst, fixed_head)
        assert (got is not None) == expect, (src, dst, fixed_head)
        if got is not None:
            targets = set(dst)
            assert all(subst_atom(got, at) in targets for at in src)
            if fixed_head:
                assert subst_atom(got, fixed_head[0]) == fixed_head[1]


def test_canonical_rename_invariance_under_renaming():
    q1 = make_query("p", [B], [atom("project", B), atom("inArea", B, db)])
    q2 = make_query("p", [X], [atom("project", X), atom("inArea", X, db)])
    assert canonical_rename(q1) == canonical_rename(q2)


def test_canonical_rename_distinguished_order_sensitivity():
    q1 = make_query("p", [A, B], [atom("r", A, B)])
    q2 = make_query("p", [B, A], [atom("r", A, B)])
    assert canonical_rename(q1) != canonical_rename(q2)


def test_canonical_rename_stable_under_body_permutation():
    q1 = make_query("p", [], [atom("r", A, B), atom("r", B, A)])
    q2 = make_query("p", [], [atom("r", B, A), atom("r", A, B)])
    assert canonical_rename(q1) == canonical_rename(q2)


def test_canonical_rename_random_invariance():
    rng = random.Random(41)
    names = ["A", "B", "C", "D", "E"]
    for _ in range(200):
        body = [Atom(rng.choice(["r", "s"]),
                     tuple(var(rng.choice(names)) for _ in range(2)))
                for _ in range(rng.randint(1, 4))]
        head_vars = sorted({t for at in body for t in at.args},
                           key=lambda t: t.name)
        head = tuple(rng.sample(head_vars, rng.randint(0, min(2, len(head_vars)))))
        q = make_query("p", head, body)
        # bijective renaming + body permutation
        perm = rng.sample(names, len(names))
        sub = {var(x): var("R" + y) for x, y in zip(names, perm)}
        shuffled = list(q.body)
        rng.shuffle(shuffled)
        q2 = make_query("p", [sub.get(t, t) for t in q.head_args],
                        [subst_atom(sub, at) for at in shuffled])
        assert canonical_rename(q) == canonical_rename(q2)


def test_query_sharing_and_safety():
    q = make_query("p", [B], [atom("hasCollaborator", A, db, B)])
    assert q.shared_variables() == {B}
    assert q.is_safe()
    unsafe = ConjunctiveQuery("p", (C,), (atom("r", A, B),))
    assert not unsafe.is_safe()


# -- cores -------------------------------------------------------------------

def _head(q):
    return Atom(q.head_pred, q.head_args)


def _maps_into(q, atoms):
    """Whether a homomorphism fixing q's head maps q's body into atoms."""
    return find_homomorphism(q.body, atoms,
                             fixed_head=(_head(q), _head(q))) is not None


def _assert_core_of(q, c):
    # a sub-tuple of q's body, in q's order
    rest = iter(q.body)
    assert all(x in rest for x in c.body), (q, c)
    assert (c.head_pred, c.head_args) == (q.head_pred, q.head_args)
    # equivalent to q: q maps into its core, and the core is part of q
    assert _maps_into(q, c.body), (q, c)
    # drops no further atom
    for x in c.body:
        assert not _maps_into(c, [y for y in c.body if y != x]), (q, c, x)
    # idempotent, and q itself when q is a core
    assert core(c) is c
    assert (c is q) == (len(c.body) == len(q.body))


def test_core_drops_a_redundant_copy():
    # the pass tries the atoms in body order, so the first copy goes
    q = make_query("p", [], [atom("r", A, B), atom("r", A, C)])
    assert core(q).body == (atom("r", A, C),)
    q = make_query("p", [], [atom("r", A, B), atom("r", a, B)])
    assert core(q).body == (atom("r", a, B),)


def test_core_keeps_what_the_head_pins():
    q = make_query("p", [B, C], [atom("r", A, B), atom("r", A, C)])
    assert core(q) is q


def test_core_keeps_the_input_order_of_the_image():
    # the copies collapse onto one triangle, kept in body order
    triangle = [atom("e", X, Y), atom("e", Y, Z), atom("e", Z, X)]
    other = [atom("e", A, B), atom("e", B, C), atom("e", C, A)]
    q = make_query("p", [], [other[1]] + triangle + [other[0], other[2]])
    c = core(q)
    _assert_core_of(q, c)
    assert len(c.body) == 3
    assert c.body == tuple(x for x in q.body if x in set(c.body))


def test_core_searches_only_where_an_atom_accepts_another(monkeypatch):
    from ontorewrite import model
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return find_homomorphism(*args, **kwargs)

    monkeypatch.setattr(model, "find_homomorphism", counting)
    # r(A, B) and r(B, A) do not match with A and B fixed
    q = make_query("p", [A, B], [atom("r", A, B), atom("r", B, A),
                                 atom("s", A)])
    assert core(q) is q and calls == []
    # r(A, B) matches r(A, a), but s(a) is missing: one search, nothing goes
    q = make_query("p", [A], [atom("r", A, B), atom("s", B), atom("r", A, a)])
    assert core(q) is q and len(calls) == 1


def _with_copy(rng, q):
    """q plus a copy of some of its atoms whose variables outside the head
    are renamed apart, so that the copy is redundant."""
    head = set(q.head_args)
    fresh = {v: var(v.name + "2") for v in q.variables() if v not in head}
    copy = [subst_atom(fresh, x) for x in q.body if rng.random() < 0.7]
    body = list(q.body) + copy
    rng.shuffle(body)
    return make_query(q.head_pred, q.head_args, body)


def test_core_properties_on_the_random_generators():
    from conftest import random_piece_case, random_query
    rng = random.Random(35)
    removed = 0
    for i in range(400):
        q = (random_query(rng, max_atoms=5) if i % 2
             else random_piece_case(rng)[1])
        for case in (q, _with_copy(rng, q)):
            c = core(case)
            _assert_core_of(case, c)
            removed += c is not case
            # no smaller part of the body takes the whole body
            if len(case.body) <= 6:
                for size in range(len(c.body)):
                    for part in itertools.combinations(case.body, size):
                        assert not _maps_into(case, part), (case, part)
    assert removed > 300


def test_core_of_symmetric_copies_stays_cheap():
    # 4-6 variable-disjoint triangles, Boolean (core: one triangle) and
    # pinned by a head variable each (core: the whole body), and 5 and 6
    # triangles linked to a hub W (core: one triangle and its link)
    from conftest import TRIANGLE, copies_body
    hub = [("l", (var("W"), 0))]
    cases = []
    for k in (4, 5, 6):
        body = copies_body([TRIANGLE] * k)
        cases.append((make_query("q", [], body), 3))
        pinned = [var(f"X0_{c}") for c in range(k)]
        cases.append((make_query("q", pinned, body), 3 * k))
    for k in (5, 6):
        body = copies_body([TRIANGLE] * k, extra=hub)
        cases.append((make_query("q", [], body), 4))
        cases.append((make_query("q", [var("W")], body), 4))
    start = time.perf_counter()
    sizes = [len(core(q).body) for q, _ in cases]
    elapsed = time.perf_counter() - start
    assert sizes == [size for _, size in cases]
    assert elapsed < 1.0, elapsed
