"""Named identity suites over exhaustive small-graph enumerations.

A check is a generator of violation messages for one object, declared with
the enumerator it walks: `@_each(_isoclasses)`, `_connected`, `_labeled`,
set partitions, or the pairs of the product checks.  `_each` turns it into
`check_x(max_n) -> list[str]` through one loop, and `check_x.one(obj)` runs
one object.  A suite is a declaration of its rows, `_suite(check, ...)`: it
runs them in order at the size bound, a `(check, cap)` row at
`min(max_n, cap)`.  Checks and engines are looked up by name when they run,
so a substituted or wrapped check or engine is the one that runs.

A check may share values across its objects (a memoised coproduct, a
convolution, an inverse character, a character action with its block table):
`_each`'s scope makes them once per call of the check or of `.one`, memoised
by `graphs._memoised`; `check_wsym_action` holds one action for its sweep,
and the three convolution checks one per pair, `check_monoid_laws` and
`check_action_axioms` through the shared scope `_convolutions`: a unit or
inverse law reads lam * mu on G as the action lam <- mu.  No memo outlives
the call or spans two checks, and none holds a side of the identity checked.
The indexed witness of `check_cointeraction` composes the routes shared with
`bialgebra`.

Each check carries its enumerator as `objects`.  Given a `timings` dict, a
suite records each check's seconds and, after the clock stops, its object
count.
"""

from __future__ import annotations

import itertools
import math
import time

from . import bialgebra as bi
from . import characters as ch
from . import chromatic as chrom
from . import lattice as lat
from . import wsym as ws
from .graphs import (
    Graph,
    Partition,
    _bits,
    _memoised,
    acyclic_orientation_count,
    all_graphs,
    canonical_form,
    cc,
    complete,
    component_graphs,
    connected_isoclasses,
    contract,
    contract_edge,
    degree,
    delete_edge,
    disjoint_union,
    format_graph,
    is_bridge,
    isoclasses_up_to,
    set_partitions,
)
from .linear import LinComb, bilinear

# the indexed path whose two cointeraction routes genuinely disagree
INDEXED_PATH_WITNESS = Graph(3, [(1, 3), (2, 3)])
COLOR_BOUND = 4        # colour counts 0..COLOR_BOUND checked against the polynomial
STANLEY_KS = (1, 2, 3)  # the negative points -k of Stanley's theorem
BLOCK_CAP = 3          # largest block count of the triangularity check


def is_forest(G):
    return len(G.edges) == G.n - cc(G)


# ---------------------------------------------------------------------------
# enumerators and the per-object declaration

def _isoclasses(n):
    """Isoclasses with 0..n vertices, `isoclasses_up_to` looked up per call."""
    return isoclasses_up_to(n)


def _connected(n):
    return (G for k in range(1, n + 1) for G in connected_isoclasses(k))


def _connected_nontrivial(n):
    """Connected isoclasses with 2..n vertices: the antipode's domain."""
    return (G for k in range(2, n + 1) for G in connected_isoclasses(k))


def _labeled(n):
    return (G for k in range(n + 1) for G in all_graphs(k))


def _set_partitions(n):
    return (p for k in range(n + 1) for p in set_partitions(k))


def _triangular_partitions(n):
    """Set partitions of [1]..[n] with at most BLOCK_CAP blocks."""
    return (p for k in range(1, n + 1) for p in set_partitions(k) if len(p) <= BLOCK_CAP)


def _isoclass_pairs(n):
    """Pairs of nonempty isoclasses with at most n vertices together."""
    reps = isoclasses_up_to(n)
    return ((G, H) for G in reps for H in reps if G.n and H.n and G.n + H.n <= n)


def _labeled_pairs(n):
    """Pairs of nonempty labeled graphs with at most n vertices together."""
    return ((G, H) for a in range(1, n) for b in range(1, n - a + 1)
            for G in all_graphs(a) for H in all_graphs(b))


def _partition_pairs(n):
    """Pairs of set partitions of total size at most n."""
    parts = list(_set_partitions(n))
    return ((p, q) for p in parts for q in parts if p.n + q.n <= n)


def _each(enumerate_objects, scope=tuple):
    """Declare a per-object check: the decorated generator yields the violation
    messages of one object, and `check(max_n)` lists them over everything
    `enumerate_objects(max_n)` yields.  The generator also takes the items of
    `scope()`, made once per call (memos); `check.one(obj)` makes its own."""
    def declare(check_one):
        def check(max_n):
            shared = scope()
            return [msg for obj in enumerate_objects(max_n) for msg in check_one(obj, *shared)]

        check.__name__ = check.__qualname__ = check_one.__name__
        check.__doc__ = check_one.__doc__
        check.objects = enumerate_objects
        check.one = lambda obj: check_one(obj, *scope())
        return check
    return declare


# ---------------------------------------------------------------------------
# bialgebra checks

def _coproducts():
    return (("restriction", bi.delta_big), ("contraction-extraction", bi.delta_small))


def _memoised_coproducts():
    """Each coproduct beside a memoised copy for one call of a check."""
    return tuple((name, cop, _memoised(cop)) for name, cop in _coproducts())


def _coassoc_sides(cop, G):
    """(cop (x) id)∘cop and (id (x) cop)∘cop on G, for a memoised coproduct of monomials."""
    first = cop(bi.iso(G))
    left = LinComb(((a1, a2, b), c * c2) for (a, b), c in first.terms()
                   for (a1, a2), c2 in cop(a).terms())
    right = LinComb(((a, b1, b2), c * c2) for (a, b), c in first.terms()
                    for (b1, b2), c2 in cop(b).terms())
    return left, right


def _pair_element_mul(x, y):
    return bilinear(x, y, lambda k1, k2: (bi.mono_mul(k1[0], k2[0]),
                                          bi.mono_mul(k1[1], k2[1])))


def _swap_legs(x):
    return x.map_keys(lambda k: (k[1], k[0]))


@_each(_isoclasses, _memoised_coproducts)
def check_coassociativity(G, *coproducts):
    for name, _, cop in coproducts:
        left, right = _coassoc_sides(cop, G)
        if left != right:
            yield f"{name} coproduct not coassociative on {format_graph(G)}"


@_each(_isoclasses)
def check_cocommutativity(G):
    if _swap_legs(cop := bi.delta_big(G)) != cop:
        yield f"restriction coproduct not cocommutative on {format_graph(G)}"
    # the contraction-extraction coproduct must NOT be cocommutative; the
    # two-vertex complete graph is the smallest witness
    if G == complete(2) and _swap_legs(cop := bi.delta_small(G)) == cop:
        yield "contraction-extraction coproduct unexpectedly cocommutative on 2: 1-2"


@_each(_isoclasses)
def check_counit_laws(G):
    ident = LinComb.term(bi.iso(G))
    for (name, cop), counit in zip(_coproducts(), (bi.counit_big, bi.counit_small)):
        pairs = cop(G)
        left = LinComb((b, c * counit(a)) for (a, b), c in pairs.terms())
        right = LinComb((a, c * counit(b)) for (a, b), c in pairs.terms())
        if left != ident or right != ident:
            yield f"counit law fails for {name} coproduct on {format_graph(G)}"


@_each(_isoclass_pairs, _memoised_coproducts)
def check_multiplicativity(pair, *coproducts):
    G, H = pair
    GH = disjoint_union(G, H)
    for name, cop, memoised in coproducts:
        if cop(GH) != _pair_element_mul(memoised(G), memoised(H)):
            yield f"{name} coproduct not multiplicative on {format_graph(G)} * {format_graph(H)}"


@_each(_isoclasses)
def check_grading(G):
    if any(sum(f.n for f in a + b) != G.n for (a, b), _ in bi.delta_big(G).terms()):
        yield f"vertex grading broken in restriction coproduct of {format_graph(G)}"
    # each connected factor counts n - 1 in the contraction-extraction grading
    if any(sum(f.n - 1 for f in a + b) != degree(G) for (a, b), _ in bi.delta_small(G).terms()):
        yield f"degree grading broken in contraction-extraction of {format_graph(G)}"


def _indexed_cointeraction_sides(G):
    """Both shared cointeraction routes with every leg left indexed, the
    extraction legs of (δ (x) δ)∘Δ joined by disjoint union."""
    return (bi.cointeraction_lhs(G, bi.delta_big_indexed, bi.delta_small_indexed, disjoint_union),
            bi.cointeraction_rhs(G, bi.delta_big_indexed, bi.delta_small_indexed))


@_each(_isoclasses, _memoised_coproducts)
def check_cointeraction(G, *coproducts):
    (_, _, big), (_, _, small) = coproducts
    routes = (bi.iso(G), big, small)
    if bi.cointeraction_lhs(*routes, bi.mono_mul) != bi.cointeraction_rhs(*routes):
        yield f"cointeraction identity fails on {format_graph(G)}"
    if G == canonical_form(INDEXED_PATH_WITNESS):
        lhs, rhs = _indexed_cointeraction_sides(INDEXED_PATH_WITNESS)
        if lhs == rhs:
            yield "indexed cointeraction unexpectedly holds on the labeled path 3: 1-3, 2-3"


@_each(_connected_nontrivial)
def check_antipode_engines(G):
    values = [engine(G) for engine in bi.ANTIPODE_ENGINES.values()]
    if any(v != values[0] for v in values):
        yield f"antipode engines disagree on {format_graph(G)}"


@_each(_connected_nontrivial)
def check_antipode_law(G):
    total = bi.delta_small(G).bind(lambda k: bi.mono_element_mul(
        bi.antipode_element(LinComb.term(bi.strip_units(k[0]))),
        LinComb.term(bi.strip_units(k[1]))))
    if total:
        yield f"antipode convolution law fails on {format_graph(G)}"


# ---------------------------------------------------------------------------
# chromatic engines and character monoid

@_each(_isoclasses)
def check_chromatic_engines(G):
    polys = {name: engine(G) for name, engine in chrom.ENGINES.items()}
    if len(set(polys.values())) != 1:
        yield f"chromatic engines disagree on {format_graph(G)}"
        return
    P = polys["delcon"]
    for k in range(COLOR_BOUND + 1):
        if P(k) != chrom.count_valid_colorings(G, k):
            yield f"coloring count mismatch on {format_graph(G)} at k={k}"
            break


@_each(_connected)
def check_character_engines(G):
    if len({ch.chr_delcon(G), ch.chr_forest(G), ch.chr_derivative(G)}) != 1:
        yield f"chromatic character engines disagree on {format_graph(G)}"


@_each(_connected, lambda: (ch.invert_character(ch.LAMBDA_ZERO),
                            _memoised(lambda pair: ch.act(*pair))))
def check_character_inverse(G, inv0, acts):
    if acts((ch.LAMBDA_CHR, ch.LAMBDA_ZERO))(G) != ch.EPSILON_PRIME(G):
        yield f"chromatic * all-ones != counit on {format_graph(G)}"
    if acts((ch.LAMBDA_ZERO, ch.LAMBDA_CHR))(G) != ch.EPSILON_PRIME(G):
        yield f"all-ones * chromatic != counit on {format_graph(G)}"
    if inv0(G) != ch.LAMBDA_CHR(G):
        yield f"inverse of all-ones != chromatic character on {format_graph(G)}"


def _convolutions():
    """One memoised convolution and one memoised action, by character pair."""
    return _memoised(lambda pair: ch.convolve(*pair)), _memoised(lambda pair: ch.act(*pair))


@_each(_isoclasses, _convolutions)
def check_monoid_laws(G, convolve, acts):
    """Associativity of convolution with unit the counit, on small graphs."""
    chars = (ch.EPSILON_PRIME, ch.LAMBDA_ZERO, ch.LAMBDA_CHR)
    for lam in chars:
        if acts((ch.EPSILON_PRIME, lam))(G) != lam(G) or acts((lam, ch.EPSILON_PRIME))(G) != lam(G):
            yield f"counit is not a convolution unit on {format_graph(G)}"
    for a, b, c in itertools.product(chars, repeat=3):
        if convolve((convolve((a, b)), c))(G) != convolve((a, convolve((b, c))))(G):
            yield f"convolution not associative on {format_graph(G)}"


@_each(_isoclasses, _convolutions)
def check_action_axioms(G, convolve, acts):
    if acts((chrom.phi_zero, ch.EPSILON_PRIME))(G) != chrom.phi_zero(G):
        yield f"acting by the counit is not the identity on {format_graph(G)}"
    for lam, mu in ((ch.LAMBDA_ZERO, ch.LAMBDA_CHR), (ch.LAMBDA_CHR, ch.LAMBDA_CHR),
                    (ch.LAMBDA_CHR, ch.LAMBDA_ZERO)):
        stepwise = acts((acts((chrom.phi_zero, lam)), mu))(G)
        if stepwise != acts((chrom.phi_zero, convolve((lam, mu))))(G):
            yield f"action axiom fails on {format_graph(G)}"


# ---------------------------------------------------------------------------
# coefficient signs, forest characterizations and negative values

@_each(_isoclasses)
def check_rota_signs(G):
    P = chrom.pchr_deletion_contraction(G)
    lo, hi = cc(G), G.n
    for i in range(hi + 2):
        a = P.coeff(i)
        if lo <= i <= hi:
            if a == 0 or (a > 0) != ((hi - i) % 2 == 0):
                yield f"coefficient sign pattern fails on {format_graph(G)} at X^{i}"
                break
        elif a != 0:
            yield f"coefficient support too wide on {format_graph(G)} at X^{i}"
            break
    if G.n >= 1 and -P.coeff(G.n - 1) != len(G.edges):
        yield f"subleading coefficient != -#edges on {format_graph(G)}"


@_each(_isoclasses)
def check_sign_positivity(G):
    """Rota's signs: the signed character is |chromatic character| >= 1."""
    if ch.LAMBDA_CHR_TILDE(G) < 1:
        yield f"signed chromatic character < 1 on {format_graph(G)}"
    if ch.LAMBDA_CHR_TILDE(G) != abs(ch.LAMBDA_CHR(G)):
        yield f"signed chromatic character != |chromatic character| on {format_graph(G)}"


@_each(_isoclasses)
def check_eval_at_one(G):
    if chrom.pchr_deletion_contraction(G)(1) != ch.EPSILON_PRIME(G):
        yield f"chromatic polynomial at 1 != counit on {format_graph(G)}"


@_each(_connected)
def check_complete_bound(G):
    value = abs(ch.LAMBDA_CHR(G))
    bound = math.factorial(G.n - 1)
    if value > bound:
        yield f"character bound exceeded on {format_graph(G)}"
    if (value == bound) != (G == complete(G.n)):
        yield f"character bound equality mischaracterized on {format_graph(G)}"


@_each(_isoclasses)
def check_monotonicity(G):
    """Adding one edge never lowers |chromatic character|; single-edge steps
    compose to the full subset relation."""
    for e in complete(G.n).edges:
        if e not in G.edges \
                and abs(ch.LAMBDA_CHR(G)) > abs(ch.LAMBDA_CHR(Graph(G.n, G.edges + (e,)))):
            yield f"|character| drops when adding {e} to {format_graph(G)}"


@_each(_isoclasses)
def check_forest_lambda(G):
    if (abs(ch.LAMBDA_CHR(G)) == 1) != is_forest(G):
        yield f"|character| = 1 misclassifies {format_graph(G)}"


@_each(_isoclasses)
def check_bridge_lemma(G):
    for e in G.edges:
        if not is_bridge(G, e):
            continue
        value = ch.LAMBDA_CHR(G)
        if value != -ch.LAMBDA_CHR(delete_edge(G, e)) \
                or value != -ch.LAMBDA_CHR(contract_edge(G, e)):
            yield f"bridge lemma fails on {format_graph(G)} at edge {e}"


@_each(_isoclasses)
def check_zeta(G):
    L = lat.build_lattice(G)
    parts, images = L.elements, L.flats
    embeds = ordered = True
    for (i, zp), (j, zq) in itertools.combinations(enumerate(images), 2):
        pq, qp = parts[i].refines(parts[j]), parts[j].refines(parts[i])
        embeds = embeds and pq == (not zp & ~zq) and qp == (not zq & ~zp)
        ordered = ordered and pq == L.leq(i, j) and qp == L.leq(j, i)
    if not embeds:
        yield f"edge-set embedding not an order embedding on {format_graph(G)}"
    if not ordered:
        yield f"lattice order != refinement on {format_graph(G)}"
    if len(set(images)) != len(images):
        yield f"edge-set embedding not injective on {format_graph(G)}"
    if (len(parts) == 2 ** len(G.edges)) != is_forest(G):
        yield f"edge-set bijectivity misclassifies {format_graph(G)}"


@_each(_isoclasses)
def check_stanley(G):
    P = chrom.pchr_deletion_contraction(G)
    for k, pairs in zip(STANLEY_KS, chrom.stanley_pairs(G, STANLEY_KS)):
        expected = (-1) ** G.n * P(-k)
        if expected != chrom.stanley_families(G, k):
            yield f"block-family count != (-1)^n P(-{k}) on {format_graph(G)}"
        if expected != pairs:
            yield f"monotone-pair count != (-1)^n P(-{k}) on {format_graph(G)}"
        if k == 1 and expected != acyclic_orientation_count(G):
            yield f"P(-1) != acyclic orientation count on {format_graph(G)}"


# ---------------------------------------------------------------------------
# lattice checks

def _broken_law(L):
    """The first law that L breaks, "order", "bounds" or "glb/lub", or None.

    Order: i is in down[i], no two down masks are equal, down[j] is inside
    down[i] for each j in it, and up is the transpose.  Bounds: up[bottom]
    and down[top] are full.  Glb/lub: meet(i, j) and join(i, j) are elements
    with down[meet] = down[i] & down[j] and up[join] = up[i] & up[j].  A
    partial order whose meet and join are its glb and lub is a lattice, so
    idempotence, commutativity, associativity and absorption follow without
    a scan (Davey-Priestley, Introduction to Lattices and Order, 2nd ed.,
    Thm 2.10).  Meet and join are never computed from the masks."""
    down, up, N = L.down, L.up, range(len(L))
    full = (1 << len(L)) - 1
    if (len(set(down)) < len(L) or up != [sum(1 << j for j in N if down[j] >> i & 1) for i in N]
            or any(not d >> i & 1 or d & ~full or any(down[j] & ~d for j in _bits(d))
                   for i, d in enumerate(down))):
        return "order"
    if up[L.index(L.bottom)] != full or down[L.index(L.top)] != full:
        return "bounds"
    for i, j in itertools.product(N, repeat=2):
        try:
            meet, join = L.meet_index(i, j), L.join_index(i, j)
        except KeyError:  # a meet or join whose flat is not an element's
            return "glb/lub"
        if down[meet] != down[i] & down[j] or up[join] != up[i] & up[j]:
            return "glb/lub"
    return None


@_each(_isoclasses)
def check_lattice_laws(G):
    broken = _broken_law(lat.build_lattice(G))
    if broken:
        yield f"lattice {broken} fails on {format_graph(G)}"


@_each(_isoclasses)
def check_lattice_grading(G):
    L = lat.build_lattice(G)
    covers, E = L.covers(), L.elements
    if any(len(E[i]) != len(E[j]) + 1 for i, j in covers):
        yield f"cover does not raise rank by 1 on {format_graph(G)}"
    # p is covered once per edge of G/p: by merging the two blocks it joins
    if sorted(i for i, _ in covers) != [i for i, p in enumerate(E) for _ in contract(G, p).edges]:
        yield f"covers above an element != edges of its contraction on {format_graph(G)}"


def _intervals(L):
    """Every pair p <= q of the lattice L, with their element indices i and j."""
    return ((i, j, p, q) for i, p in enumerate(L.elements) for j, q in enumerate(L.elements)
            if L.down[j] >> i & 1)


@_each(_connected)
def check_mobius_values(G):
    L = lat.build_lattice(G)
    for i, j, p, q in _intervals(L):
        if L.mobius_index(i, j) != ch.LAMBDA_CHR(L.quotient(i, j)):
            yield (f"Mobius value != character of interval quotient "
                   f"on {format_graph(G)} at [{p}, {q}]")
    if L.mobius(L.bottom, L.top) != ch.LAMBDA_CHR(G):
        yield f"Mobius of the full interval != chromatic character on {format_graph(G)}"


@_each(_isoclasses)
def check_lattice_product(G):
    parts = (len(lat.build_lattice(H)) for H in component_graphs(G))
    if len(lat.build_lattice(G)) != math.prod(parts):
        yield f"lattice size not multiplicative over components on {format_graph(G)}"


@_each(_isoclasses)
def check_lattice_bridge(G):
    size = len(lat.build_lattice(G))
    for e in G.edges:
        if is_bridge(G, e) and size != 2 * len(lat.build_lattice(contract_edge(G, e))):
            yield f"bridge factorization fails on {format_graph(G)} at {e}"


@_each(_connected)
def check_interval_isomorphism(G):
    """Intervals [p, q] are order-isomorphic to the lattice of (G|q)/p through
    the explicit map r -> r/p, checked to be a bijection that preserves and
    reflects order on every interval.  The minimum of each block of r >= p is
    the minimum of a block of p, so r's growth string read at those minima is
    that of r/p.  One lattice is built per distinct labelled quotient (G|q)/p."""
    @_memoised
    def lattice_of(Q):  # Q's lattice, and each element's index by growth string
        M = lat.build_lattice(Q)
        return M, {r.growth: x for x, r in enumerate(M.elements)}

    L = lat.build_lattice(G)
    over = {(i, a): tuple(L.elements[a].growth[b[0] - 1] for b in p.blocks)
            for i, p in enumerate(L.elements) for a in _bits(L.up[i])}
    for i, j, p, q in _intervals(L):
        box = L.up[i] & L.down[j]
        M, by_growth = lattice_of(L.quotient(i, j))
        at = {a: by_growth.get(over[(i, a)]) for a in _bits(box)}
        if len(set(at.values()) - {None}) == len(M) == len(at) and all(
                sum(1 << at[b] for b in _bits(L.up[a] & box)) == M.up[x] for a, x in at.items()):
            continue
        yield (f"r -> r/p is not an order isomorphism onto the quotient lattice "
               f"on {format_graph(G)} at [{p}, {q}]")


# ---------------------------------------------------------------------------
# word symmetric functions

def _wsym_examples(max_n):
    """Two products and a coproduct worked by hand; independent of the bound."""
    def W(n, *blocks):
        return Partition(n, blocks)

    def total(*keys):
        return LinComb((k, 1) for k in keys)

    P1, P12, P1_2, Q = W(1, (1,)), W(2, (1, 2)), W(2, (1,), (2,)), W(4, (1, 3), (2,), (4,))
    return (
        ("product of the one-block pair with a point", ws.wsym_product(P12, P1),
         total(W(3, (1, 2), (3,)), W(3, (1, 2, 3)))),
        ("product of the two-singleton element with a point", ws.wsym_product(P1_2, P1),
         total(W(3, (1,), (2,), (3,)), W(3, (1, 3), (2,)), W(3, (1,), (2, 3)))),
        ("coproduct of the four-point three-block element", ws.wsym_coproduct(Q),
         total((Q, W(0)), (W(0), Q), (W(3, (1, 3), (2,)), P1), (W(3, (1, 2), (3,)), P1),
               (P1_2, P12), (P12, P1_2), (P1, W(3, (1, 2), (3,))), (P1, W(3, (1, 3), (2,))))),
    )


@_each(_wsym_examples)
def check_wsym_examples(example):
    what, found, want = example
    if found != want:
        yield f"{what} is wrong"


@_each(_labeled_pairs)
def check_wsym_algebra_morphism(pair):
    G, H = pair
    if ws.pchr_nc(disjoint_union(G, H)) != bilinear(ws.pchr_nc(G), ws.pchr_nc(H), ws.wsym_product):
        yield (f"noncommutative chromatic not an algebra morphism on "
               f"{format_graph(G)} * {format_graph(H)}")


@_each(_labeled)
def check_wsym_coalgebra_morphism(G):
    left = ws.pchr_nc(G).bind(ws.wsym_coproduct)
    right = bi.delta_big_indexed(G).bind(
        lambda k: bilinear(ws.pchr_nc(k[0]), ws.pchr_nc(k[1]), lambda x, y: (x, y)))
    if left != right:
        yield f"noncommutative chromatic not a coalgebra morphism on {format_graph(G)}"


@_each(_labeled, lambda: (ch.act(ws.phi0_nc, ch.LAMBDA_CHR),))
def check_wsym_action(G, acted):
    if ws.pchr_nc(G) != acted(G):
        yield f"chromatic element != acted packed-coloring morphism on {format_graph(G)}"


@_each(_labeled)
def check_wsym_words(G):
    if ws.expand(ws.pchr_nc(G)) != LinComb._merged(dict.fromkeys(ws.packed_valid_colorings(G), 1)):
        yield f"word expansion != packed valid colorings on {format_graph(G)}"


@_each(_triangular_partitions)
def check_wsym_triangularity(p):
    n = p.n
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if p.growth[i - 1] != p.growth[j - 1]]
    P = ws.pchr_nc(Graph(n, edges))
    if P.coeff(p) != 1:
        yield f"triangular leading term missing for {p}"
    elif any(len(q) <= len(p) for q in P.keys() if q != p):
        yield f"non-triangular lower term for {p}"


@_each(_set_partitions)
def check_wsym_cocommutativity(p):
    cop = ws.wsym_coproduct(p)
    if _swap_legs(cop) != cop:
        yield f"W coproduct not cocommutative on {p}"


# ---------------------------------------------------------------------------
# projections to polynomials and to isoclasses

@_each(_labeled)
def check_projection_chromatic(G):
    if ws.hilbert_morphism(ws.pchr_nc(G)) != chrom.pchr_deletion_contraction(G):
        yield f"Hilbert projection of chromatic element is wrong on {format_graph(G)}"
    if ws.hilbert_morphism(ws.phi0_nc(G)) != chrom.phi_zero(G):
        yield f"Hilbert projection of coloring morphism is wrong on {format_graph(G)}"


@_each(_partition_pairs)
def check_hilbert_algebra_morphism(pair):
    p, q = pair
    left = ws.hilbert_morphism(ws.wsym_product(p, q))
    if left != ws.hilbert_morphism(LinComb.term(p)) * ws.hilbert_morphism(LinComb.term(q)):
        yield f"Hilbert projection not multiplicative on {p}, {q}"


@_each(_labeled)
def check_varpi_morphism(G):
    for name, cop, indexed in (("restriction-coproduct", bi.delta_big, bi.delta_big_indexed),
                               ("contraction-extraction", bi.delta_small, bi.delta_small_indexed)):
        via_indexed = indexed(G).map_keys(lambda k: (bi.iso(k[0]), bi.iso(k[1])))
        if cop(bi.varpi(LinComb.term(G))) != via_indexed:
            yield f"isoclass projection not a {name} morphism on {format_graph(G)}"


# ---------------------------------------------------------------------------
# suites

def _suite(*rows):
    """A suite of rows, each a check or a (check, cap) pair run at the size
    bound.  Each check is looked up by name when the suite runs; a `timings`
    dict gets, by check name, its seconds and its object count."""
    def run(max_n, timings=None):
        violations = []
        for row in rows:
            declared, cap = row if isinstance(row, tuple) else (row, max_n)
            check, n = globals()[declared.__name__], min(max_n, cap)
            start = time.perf_counter()
            violations.extend(check(n))
            if timings is not None:
                timings[declared.__name__] = {"seconds": round(time.perf_counter() - start, 6),
                                              "objects": sum(1 for _ in check.objects(n))}
        return {"checks": len(rows), "violations": violations}
    return run


suite_coassoc = _suite(check_coassociativity, check_cocommutativity, check_multiplicativity,
                       check_grading)
suite_counit = _suite(check_counit_laws)
suite_cointeraction = _suite(check_cointeraction)
suite_antipode = _suite(check_antipode_engines, check_antipode_law)
suite_engines = _suite(check_chromatic_engines, check_character_engines, check_character_inverse,
                       (check_monoid_laws, 4), (check_action_axioms, 4))
suite_signs = _suite(check_rota_signs, check_sign_positivity, check_eval_at_one,
                     check_complete_bound, check_monotonicity, check_forest_lambda,
                     check_bridge_lemma)
suite_stanley = _suite(check_stanley)
suite_mobius = _suite(check_lattice_laws, check_lattice_grading, check_mobius_values,
                      check_lattice_product, check_lattice_bridge, check_interval_isomorphism,
                      check_zeta)
suite_wsym = _suite(check_wsym_examples, (check_wsym_algebra_morphism, 4),
                    (check_wsym_coalgebra_morphism, 4), check_wsym_action, check_wsym_words,
                    (check_wsym_triangularity, 5), (check_wsym_cocommutativity, 5))
suite_projection = _suite(check_projection_chromatic, (check_hilbert_algebra_morphism, 4),
                          (check_varpi_morphism, 4))


SUITES = {name.removeprefix("suite_"): fn for name, fn in globals().items()
          if name.startswith("suite_")}
