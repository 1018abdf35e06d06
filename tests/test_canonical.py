"""Canonical renaming: the walk that skips interchangeable ties against the
plain branch-and-bound it replaced, kept here as the reference and run on
each group of linked atoms, plus the symmetric stress and hash-seed
independence.  Renaming keys: the partition they induce against
canonical_rename's, also on bodies of repeated disjoint copies,
deduplication that sorts atom keys without walking where no non-head
variable joins two atoms, and keys that walk each group of linked atoms on
its own."""

import os
import random
import subprocess
import sys
import time

from ontorewrite import model
from ontorewrite.cli import main
from ontorewrite.model import (VAR, Atom, ConjunctiveQuery, canonical_rename,
                               const, make_query, null, ordered_body,
                               renaming_key, subst_atom, var)
from ontorewrite.rewriter import RewriteOptions, xrewrite

from conftest import (FINANCIAL, FINANCIAL_QUERY, PATH, SHAPES, TRIANGLE,
                      copies_body, pipeline, query)


# -- reference: branch-and-bound over every tied candidate -------------------

def _reference_key(a, assignment, next_idx):
    key = [a.pred]
    fresh = {}
    for t in a.args:
        if t.kind != VAR:
            key.append((0, t))
        elif t in assignment:
            key.append((1, assignment[t]))
        else:
            if t not in fresh:
                fresh[t] = next_idx + len(fresh)
            key.append((1, fresh[t]))
    return tuple(key)


def _reference_order(body, assignment, next_idx):
    def rec(remaining, assign, idx):
        if not remaining:
            return [], []
        keyed = [(_reference_key(a, assign, idx), a) for a in remaining]
        best_key = min(k for k, _ in keyed)
        candidates = [a for k, a in keyed if k == best_key]
        best_seq = None
        best_form = None
        for a in candidates:
            sub_assign = dict(assign)
            sub_idx = idx
            for t in a.args:
                if t.kind == VAR and t not in sub_assign:
                    sub_assign[t] = sub_idx
                    sub_idx += 1
            rest = [x for x in remaining if x is not a]
            tail, tail_form = rec(rest, sub_assign, sub_idx)
            if best_form is None or tail_form < best_form:
                best_form = tail_form
                best_seq = [a] + tail
            if len(candidates) == 1:
                break
        return best_seq, [best_key] + best_form

    return rec(list(body), assignment, next_idx)


def _reference_head(q):
    assignment = {}
    idx = 1
    for t in q.head_args:
        if t.kind == VAR and t not in assignment:
            assignment[t] = idx
            idx += 1
    return assignment, idx


def reference_ordered_body(q):
    """Each group of atoms that non-head variables link laid out by the
    branch-and-bound, groups of two or more atoms first, then lone atoms,
    each kind sorted by key sequence, ties in body order."""
    assignment, idx = _reference_head(q)
    groups = model.connected_components(
        q.body, lambda t: t.kind == VAR and t not in assignment)
    laid_out = [_reference_order(g, assignment, idx) for g in groups]
    laid_out.sort(key=lambda group: (len(group[0]) == 1, group[1]))
    return [a for order, _ in laid_out for a in order]


def reference_canonical_rename(q):
    assignment, idx = _reference_head(q)
    order = reference_ordered_body(q)
    for a in order:
        for t in a.args:
            if t.kind == VAR and t not in assignment:
                assignment[t] = idx
                idx += 1
    sub = {t: var(f"#{i}") for t, i in assignment.items()}
    return ConjunctiveQuery(q.head_pred,
                            tuple(sub.get(t, t) for t in q.head_args),
                            tuple(subst_atom(sub, a) for a in order))


# -- random queries with repeated predicates and ties -------------------------

_PREDS = [("p", 1), ("q", 2), ("q", 2), ("r", 2), ("s", 3)]
_CONSTS = [const("a"), const("b")]


def random_tied_query(rng):
    """A query of up to seven atoms over few predicates: shared variables,
    constants, head variables, and groups of atoms alike but for private
    variables of their own (q(A, Y1), q(A, Y2), ...)."""
    shared = [var(f"V{i}") for i in range(rng.randint(1, 4))]
    size = rng.randint(1, 7)
    body = []
    private = 0
    while len(body) < size:
        pred, arity = rng.choice(_PREDS)
        if rng.random() < 0.35:
            # a group of look-alike atoms with private variables
            template = [rng.choice(shared) if rng.random() < 0.5 else None
                        for _ in range(arity)]
            for _ in range(rng.randint(2, 4)):
                args = []
                for slot in template:
                    if slot is None:
                        private += 1
                        slot = var(f"Y{private}")
                    args.append(slot)
                body.append(Atom(pred, tuple(args)))
            continue
        args = tuple(rng.choice(_CONSTS) if rng.random() < 0.15
                     else rng.choice(shared) for _ in range(arity))
        body.append(Atom(pred, args))
    body = body[:size]
    rng.shuffle(body)
    body_vars = sorted({t for a in body for t in a.args if t.kind == VAR},
                       key=lambda t: t.name)
    k = rng.randint(0, min(2, len(body_vars)))
    head = rng.sample(body_vars, k)
    if head and rng.random() < 0.2:
        head.append(head[0])  # a repeated head variable
    if rng.random() < 0.1:
        head.append(rng.choice(_CONSTS))
    return make_query("h", head, body)


def test_canonical_rename_and_ordered_body_match_the_reference():
    rng = random.Random(2024)
    ties = 0
    for _ in range(5000):
        q = random_tied_query(rng)
        assert ordered_body(q) == reference_ordered_body(q), q
        assert canonical_rename(q) == reference_canonical_rename(q), q
        ties += len({a.pred for a in q.body}) < len(q.body)
    assert ties > 2500  # most queries repeat a predicate


def test_canonical_rename_matches_the_reference_on_cycles():
    # ties that interchangeability does not resolve: cycles and cliques
    # over one binary predicate still branch
    xs = [var(f"X{i}") for i in range(6)]
    for n in range(2, 7):
        cycle = [Atom("e", (xs[i], xs[(i + 1) % n])) for i in range(n)]
        clique = [Atom("e", (xs[i], xs[j])) for i in range(min(n, 4))
                  for j in range(min(n, 4)) if i != j]
        for body in (cycle, clique, cycle[::-1]):
            for head in ((), (xs[0],), (xs[1], xs[0])):
                q = make_query("h", head, body)
                assert canonical_rename(q) == reference_canonical_rename(q)
                assert ordered_body(q) == reference_ordered_body(q)


def test_symmetric_private_atoms_canonicalise_fast():
    q = make_query("h", [], [Atom("q", (var(f"Y{i}"),)) for i in range(12)])
    start = time.perf_counter()
    canon = canonical_rename(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"12 tied atoms took {elapsed * 1000:.1f} ms"
    assert canon.body == tuple(Atom("q", (var(f"#{i}"),)) for i in range(1, 13))


def test_atoms_tied_once_their_shared_variable_is_named_canonicalise_fast():
    # the q-atoms share X until p(X) is placed; from then on they tie and
    # are interchangeable (eight of them, so that a search that branches
    # over them fails in about a second instead of running for hours)
    x = var("X")
    q = make_query("h", [], [Atom("p", (x,))]
                   + [Atom("q", (x, var(f"Y{i}"))) for i in range(8)])
    start = time.perf_counter()
    canon = canonical_rename(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"8 tied atoms took {elapsed * 1000:.1f} ms"
    assert canon.body[0] == Atom("p", (var("#1"),))
    assert canon.body[1:] == tuple(Atom("q", (var("#1"), var(f"#{i}")))
                                   for i in range(2, 10))


# -- renaming keys -------------------------------------------------------------

def _renamed_and_permuted(q, rng):
    """q with its variables renamed one-to-one and its body shuffled."""
    variables = sorted(q.variables(), key=lambda t: t.name)
    fresh = [var(f"R{i}") for i in range(len(variables))]
    rng.shuffle(fresh)
    sub = dict(zip(variables, fresh))
    body = [subst_atom(sub, a) for a in q.body]
    rng.shuffle(body)
    return make_query(q.head_pred, [sub.get(t, t) for t in q.head_args], body)


def _partition(queries, key):
    classes = {}
    for i, q in enumerate(queries):
        classes.setdefault(key(q), []).append(i)
    return sorted(classes.values())


def test_renaming_key_partitions_like_canonical_rename():
    # each random query with a renamed and permuted copy, which must share
    # its class, and a copy with the head reversed, which usually must not
    rng = random.Random(2024)
    queries = []
    for _ in range(5000):
        q = random_tied_query(rng)
        queries += [q, _renamed_and_permuted(q, rng),
                    make_query(q.head_pred, q.head_args[::-1], q.body)]
    sorted_keys = sum(_is_private(q) for q in queries)
    assert sorted_keys > 2000
    assert len(queries) - sorted_keys > 2000
    # bodies of repeated, variable-disjoint copies, which split into
    # several groups that renaming_key keys apart
    symmetric = _symmetric_queries(random.Random(2025))
    assert sum(_multi_atom_groups(q) >= 2 for q in symmetric) > 800
    queries += symmetric
    assert _partition(queries, renaming_key) == _partition(queries,
                                                           canonical_rename)


def random_symmetric_query(rng):
    """A query of two to four variable-disjoint copies of small e-graphs,
    most often of one graph repeated, each copy maybe joined to the
    constant `a` shared by all, with up to two head variables."""
    n = rng.randint(2, 4)
    if rng.random() < 0.6:
        shapes = [rng.choice(SHAPES)] * n
    else:
        shapes = [rng.choice(SHAPES) for _ in range(n)]
    extra = [("e", (0, const("a")))] if rng.random() < 0.3 else []
    body = copies_body(shapes, extra)
    rng.shuffle(body)
    body_vars = sorted({t for a in body for t in a.args if t.kind == VAR},
                       key=lambda t: t.name)
    head = rng.sample(body_vars, rng.choice((0, 0, 1, 2)))
    return make_query("h", head, body)


def _symmetric_queries(rng):
    """2 to 5 disjoint triangles, two copies of a path and triangles that
    share a constant, each with a renamed and permuted copy; then random
    symmetric queries, each with a renamed and permuted copy, a copy with
    the head reversed and a copy with one atom reversed, which is a
    renaming only sometimes."""
    queries = []
    for body in [copies_body([TRIANGLE] * n) for n in range(2, 6)] + [
            copies_body([PATH] * 2), copies_body([PATH, TRIANGLE]),
            copies_body([TRIANGLE] * 3, [("e", (0, const("a")))]),
            copies_body([TRIANGLE] * 2, [("e", (0, const("a"))),
                                     ("e", (1, const("b")))])]:
        for head in ((), (var("X0_0"),)):
            q = make_query("h", head, body)
            queries += [q, _renamed_and_permuted(q, rng)]
    for _ in range(250):
        q = random_symmetric_query(rng)
        i = rng.randrange(len(q.body))
        flipped = list(q.body)
        flipped[i] = Atom("e", flipped[i].args[::-1])
        queries += [q, _renamed_and_permuted(q, rng),
                    make_query(q.head_pred, q.head_args[::-1], q.body),
                    make_query(q.head_pred, q.head_args, flipped)]
    return queries


def _multi_atom_groups(q):
    """The number of q's groups of two or more atoms that variables
    outside the head link."""
    assignment = model.head_assignment(q)[0]
    groups = model.connected_components(
        q.body, lambda t: t.kind == VAR and t not in assignment)
    return sum(len(g) > 1 for g in groups)


def test_renaming_key_of_disjoint_triangles_stays_fast():
    # a walk over the whole body branched over every order of the tied
    # triangles: 5 of them took ~0.4 s, and 6 ~13 s
    q = make_query("h", [], copies_body([TRIANGLE] * 6))
    start = time.perf_counter()
    key = renaming_key(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    # the canonical order is the groups' order, so neither walks the body
    start = time.perf_counter()
    canonical_rename(q), ordered_body(q)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert key == renaming_key(_renamed_and_permuted(q, random.Random(1)))
    path = make_query("h", [], copies_body([TRIANGLE] * 5 + [PATH]))
    assert key != renaming_key(path)


def _is_private(q):
    """Whether renaming_key(q) sorts atom keys instead of walking."""
    return model.private_body_keys(renaming_key(q)) is not None


def _reference_private_atom_keys(body, assignment):
    """Per atom of body, its atom key, or None as soon as an unnamed
    variable occurs in a second atom: the one loop that once both encoded
    atom keys and detected private bodies, kept as the reference."""
    placed = set()  # the unnamed variables of the atoms keyed so far
    keys = []
    for a in body:
        key = [a.pred]
        own = {}
        for t in a.args:
            if t.kind != VAR:
                key.append((0, t))
            elif t in assignment:
                key.append((1, assignment[t]))
            else:
                rank = own.get(t)
                if rank is None:
                    if t in placed:
                        return None
                    rank = own[t] = len(own)
                key.append((2, rank))
        placed.update(own)
        keys.append(tuple(key))
    return keys


def _key_contract_queries(rng):
    """Random tied queries, then random suites' queries and every query
    their rewritings admit with elimination off."""
    from conftest import (QUERY_POOL, random_linear_rules, random_query,
                          random_sticky_rules, rules_context)
    for _ in range(2000):
        yield random_tied_query(rng)
    for i in range(400):
        rules = (random_linear_rules(rng) if i % 2 == 0
                 else random_sticky_rules(rng, max_rules=4))
        q = random_query(rng, pool=QUERY_POOL)
        res = xrewrite(q, rules_context(rules),
                       RewriteOptions(elimination=False, budget=2000))
        yield q
        yield from (entry.query for entry in res.state.entries[:40])


def test_group_keys_are_the_atom_keys_exactly_on_private_bodies():
    # the contract the keyed rewriting step relies on: where no unnamed
    # variable joins two atoms, every group key is the atom's key, in body
    # order, and the renaming key hands those keys back sorted; elsewhere
    # it holds a group mark
    private = linked = 0
    for q in _key_contract_queries(random.Random(3301)):
        assignment = model.head_assignment(q)[0]
        expected = _reference_private_atom_keys(q.body, assignment)
        body_keys = model.private_body_keys(renaming_key(q))
        if expected is None:
            assert body_keys is None, q
            linked += 1
        else:
            assert model.group_keys(q.body, assignment) == expected, q
            assert [model.atom_key(a, assignment) for a in q.body] == expected
            assert body_keys == tuple(sorted(expected)), q
            private += 1
    assert private > 1000 and linked > 1000, (private, linked)


def _same_class(q1, q2):
    same = renaming_key(q1) == renaming_key(q2)
    assert same == (canonical_rename(q1) == canonical_rename(q2))
    return same


def test_renaming_key_hand_cases():
    A, B, Y, Z = var("A"), var("B"), var("Y"), var("Z")
    # a constant and a null of the same name stay apart, in body and head
    assert not _same_class(make_query("h", [], [Atom("p", (const("a"),))]),
                           make_query("h", [], [Atom("p", (null("a"),))]))
    assert not _same_class(make_query("h", [const("a")], [Atom("p", (A,))]),
                           make_query("h", [null("a")], [Atom("p", (A,))]))
    # the head order over one body matters, and so does the head predicate
    body = [Atom("r", (A, B))]
    assert not _same_class(make_query("h", [A, B], body),
                           make_query("h", [B, A], body))
    assert not _same_class(make_query("h", [A, B], body),
                           make_query("g", [A, B], body))
    # a repeated head variable and a head constant
    q = make_query("h", [A, A, const("c")], [Atom("r", (A, Y))])
    assert _same_class(q, make_query("h", [B, B, const("c")],
                                     [Atom("r", (B, Z))]))
    assert not _same_class(q, make_query("h", [A, B, const("c")],
                                         [Atom("r", (A, Y)), Atom("r", (B, Z))]))
    assert not _same_class(q, make_query("h", [A, const("c"), A],
                                         [Atom("r", (A, Y))]))
    # a repeated private variable is ranked within its atom
    assert not _same_class(make_query("h", [], [Atom("r", (Y, Y))]),
                           make_query("h", [], [Atom("r", (Y, Z))]))
    # private atoms alike but for their variables form a multiset
    assert _same_class(
        make_query("h", [A], [Atom("p", (A,)), Atom("q", (Y,)), Atom("q", (Z,))]),
        make_query("h", [B], [Atom("q", (Z,)), Atom("p", (B,)), Atom("q", (Y,))]))
    # a body joined only through a non-head variable differs from the same
    # atoms without the join
    joined = make_query("h", [A], [Atom("r", (A, Y)), Atom("s", (Y,))])
    unjoined = make_query("h", [A], [Atom("r", (A, Y)), Atom("s", (Z,))])
    assert not _same_class(joined, unjoined)


def _count_walks_from_renaming_key(monkeypatch):
    """The groups that renaming_key, through group_keys and
    _ordered_groups, hands to _canonical_order from now on."""
    calls = []
    original = model._canonical_order

    def counting(body, assignment):
        if sys._getframe(2).f_code is model.group_keys.__code__:
            calls.append(body)
        return original(body, assignment)
    monkeypatch.setattr(model, "_canonical_order", counting)
    return calls


def test_financial_rewriting_deduplicates_without_canonical_forms(monkeypatch):
    doc, tgds, ctx = pipeline(FINANCIAL)
    q = query(FINANCIAL_QUERY, doc)
    calls = _count_walks_from_renaming_key(monkeypatch)
    for elimination in (False, None):
        res = xrewrite(q, ctx, RewriteOptions(elimination=elimination))
        assert res.metrics.generated > 0
    assert calls == []
    # the count sees a query whose non-head variable joins two atoms
    A, Y = var("A"), var("Y")
    renaming_key(make_query("h", [A], [Atom("r", (A, Y)), Atom("s", (Y,))]))
    assert len(calls) == 1


def test_growing_sticky_query_deduplicates_without_canonical_forms(
        tmp_path, monkeypatch, capsys):
    onto = tmp_path / "o.dlog"
    onto.write_text("p(X), q(Y) -> p(X).\n")
    qf = tmp_path / "q.dlog"
    qf.write_text("a(A) :- p(A).\n")
    calls = _count_walks_from_renaming_key(monkeypatch)
    code = main(["rewrite", "--ontology", str(onto), "--query", str(qf),
                 "--budget", "100"])
    capsys.readouterr()
    assert code == 3
    assert calls == []


_DIGEST_SCRIPT = """
import hashlib, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from test_canonical import random_tied_query
from ontorewrite.model import canonical_rename, ordered_body, renaming_key
rng = random.Random(5)
h = hashlib.sha256()
for _ in range(500):
    q = random_tied_query(rng)
    h.update(repr(canonical_rename(q)).encode())
    h.update(repr(ordered_body(q)).encode())
    h.update(repr(renaming_key(q)).encode())
print(h.hexdigest())
"""


def test_canonical_forms_do_not_depend_on_the_hash_seed():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(tests_dir), "src")
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, tests_dir, src_dir],
            env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
