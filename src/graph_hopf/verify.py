"""Named identity suites over exhaustive small-graph enumerations.

A check is a generator of violation messages for one object, declared with
the enumerator it walks: `@_each(_isoclasses)`, `_connected`, `_labeled`,
set partitions, or the pairs of the product checks.  `_each` turns it into
`check_x(max_n) -> list[str]` through one loop.  Cocommutativity and
cointeraction (which end with a witness), the character inverse and the
monoid laws (which do work once per call) keep an explicit body.  A suite
runs its checks in order at the size bound, a `(check, cap)` row at
`min(max_n, cap)`.  Engines are looked up when a check runs, so a
substituted or wrapped engine is the one checked.

Each check carries its enumerator as `objects` (`_each` sets it, `_over`
declares it for an explicit body).  Given a `timings` dict, a suite records
each check's seconds and, after the clock stops, its object count.
"""

from __future__ import annotations

import itertools
import math
import time
from operator import itemgetter

from . import bialgebra as bi
from . import characters as ch
from . import chromatic as chrom
from . import lattice as lat
from . import wsym as ws
from .graphs import (
    Graph,
    Partition,
    _bits,
    acyclic_orientation_count,
    all_graphs,
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


def _over(enumerate_objects):
    """Declare the enumerator that an explicit-body check walks."""
    def declare(check):
        check.objects = enumerate_objects
        return check
    return declare


def _each(enumerate_objects):
    """Declare a per-object check: the decorated generator yields the
    violation messages of one object, and the result is `check(max_n)`, the
    list of messages over everything `enumerate_objects(max_n)` yields."""
    def declare(check_one):
        @_over(enumerate_objects)
        def check(max_n):
            return [message for obj in enumerate_objects(max_n) for message in check_one(obj)]

        check.__name__ = check.__qualname__ = check_one.__name__
        check.__doc__ = check_one.__doc__
        return check
    return declare


# ---------------------------------------------------------------------------
# bialgebra checks

def _coproducts():
    return (("restriction", bi.delta_big), ("contraction-extraction", bi.delta_small))


def _coassoc_sides(cop, G):
    first = cop(G)
    left = LinComb(((a1, a2, b), c * c2) for (a, b), c in first.items()
                   for (a1, a2), c2 in cop(LinComb.term(a)).items())
    right = LinComb(((a, b1, b2), c * c2) for (a, b), c in first.items()
                    for (b1, b2), c2 in cop(LinComb.term(b)).items())
    return left, right


def _pair_element_mul(x, y):
    return bilinear(x, y, lambda k1, k2: (bi.mono_mul(k1[0], k2[0]),
                                          bi.mono_mul(k1[1], k2[1])))


def _swap_legs(x):
    return x.map_keys(lambda k: (k[1], k[0]))


@_each(_isoclasses)
def check_coassociativity(G):
    for name, cop in _coproducts():
        left, right = _coassoc_sides(cop, G)
        if left != right:
            yield f"{name} coproduct not coassociative on {format_graph(G)}"


@_over(_isoclasses)
def check_cocommutativity(max_n):
    out = [f"restriction coproduct not cocommutative on {format_graph(G)}"
           for G in _isoclasses(max_n) if _swap_legs(bi.delta_big(G)) != bi.delta_big(G)]
    # the contraction-extraction coproduct must NOT be cocommutative; the
    # two-vertex complete graph is the smallest witness
    if max_n >= 2:
        K2 = complete(2)
        if _swap_legs(bi.delta_small(K2)) == bi.delta_small(K2):
            out.append("contraction-extraction coproduct unexpectedly cocommutative on 2: 1-2")
    return out


@_each(_isoclasses)
def check_counit_laws(G):
    ident = LinComb.term(bi.iso(G))
    for (name, cop), counit in zip(_coproducts(), (bi.counit_big, bi.counit_small)):
        pairs = cop(G)
        left = LinComb((b, c * counit(LinComb.term(a))) for (a, b), c in pairs.items())
        right = LinComb((a, c * counit(LinComb.term(b))) for (a, b), c in pairs.items())
        if left != ident or right != ident:
            yield f"counit law fails for {name} coproduct on {format_graph(G)}"


@_each(_isoclass_pairs)
def check_multiplicativity(pair):
    G, H = pair
    GH = disjoint_union(G, H)
    for name, cop in _coproducts():
        if cop(GH) != _pair_element_mul(cop(G), cop(H)):
            yield f"{name} coproduct not multiplicative on {format_graph(G)} * {format_graph(H)}"


@_each(_isoclasses)
def check_grading(G):
    if any(bi.mono_vertices(a) + bi.mono_vertices(b) != G.n for a, b in bi.delta_big(G)):
        yield f"vertex grading broken in restriction coproduct of {format_graph(G)}"
    if any(bi.mono_degree(a) + bi.mono_degree(b) != degree(G) for a, b in bi.delta_small(G)):
        yield f"degree grading broken in contraction-extraction of {format_graph(G)}"


@_over(_isoclasses)
def check_cointeraction(max_n):
    out = [f"cointeraction identity fails on {format_graph(G)}"
           for G in _isoclasses(max_n) if bi.cointeraction_lhs(G) != bi.cointeraction_rhs(G)]
    if max_n >= 3:
        W = INDEXED_PATH_WITNESS
        if bi.cointeraction_lhs(W, indexed=True) == bi.cointeraction_rhs(W, indexed=True):
            out.append("indexed cointeraction unexpectedly holds on the labeled path 3: 1-3, 2-3")
    return out


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


@_over(_connected)
def check_character_inverse(max_n):
    out = []
    inv0 = ch.invert_character(ch.LAMBDA_ZERO)
    for G in _connected(max_n):
        if ch.convolve_value(ch.LAMBDA_CHR, ch.LAMBDA_ZERO, G) != ch.EPSILON_PRIME(G):
            out.append(f"chromatic * all-ones != counit on {format_graph(G)}")
        if ch.convolve_value(ch.LAMBDA_ZERO, ch.LAMBDA_CHR, G) != ch.EPSILON_PRIME(G):
            out.append(f"all-ones * chromatic != counit on {format_graph(G)}")
        if inv0(G) != ch.LAMBDA_CHR(G):
            out.append(f"inverse of all-ones != chromatic character on {format_graph(G)}")
    return out


@_over(_isoclasses)
def check_monoid_laws(max_n):
    """Associativity of convolution with unit the counit, on small graphs."""
    chars = [ch.EPSILON_PRIME, ch.LAMBDA_ZERO, ch.LAMBDA_CHR]
    graphs = _isoclasses(max_n)
    out = [f"counit is not a convolution unit on {format_graph(G)}"
           for G in graphs for lam in chars
           if ch.convolve_value(ch.EPSILON_PRIME, lam, G) != lam(G)
           or ch.convolve_value(lam, ch.EPSILON_PRIME, G) != lam(G)]
    for a, b, c in itertools.product(chars, repeat=3):
        left = ch.convolve(ch.convolve(a, b), c)
        right = ch.convolve(a, ch.convolve(b, c))
        out.extend(f"convolution not associative on {format_graph(G)}"
                   for G in graphs if left(G) != right(G))
    return out


@_each(_isoclasses)
def check_action_axioms(G):
    if ch.act(chrom.phi_zero, ch.EPSILON_PRIME)(G) != chrom.phi_zero(G):
        yield f"acting by the counit is not the identity on {format_graph(G)}"
    for lam, mu in ((ch.LAMBDA_ZERO, ch.LAMBDA_CHR), (ch.LAMBDA_CHR, ch.LAMBDA_CHR),
                    (ch.LAMBDA_CHR, ch.LAMBDA_ZERO)):
        stepwise = ch.act(ch.act(chrom.phi_zero, lam), mu)(G)
        if stepwise != ch.act(chrom.phi_zero, ch.convolve(lam, mu))(G):
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
    parts, images = L.elements, [lat.zeta(G, p) for p in L.elements]
    embeds = ordered = True
    for (i, zp), (j, zq) in itertools.combinations(enumerate(images), 2):
        pq, qp = parts[i].refines(parts[j]), parts[j].refines(parts[i])
        embeds = embeds and pq == (zp <= zq) and qp == (zq <= zp)
        ordered = ordered and pq == L.leq(i, j) and qp == L.leq(j, i)
    if not embeds:
        yield f"edge-set embedding not an order embedding on {format_graph(G)}"
    if not ordered:
        yield f"lattice order != refinement on {format_graph(G)}"
    if len(set(images)) != len(images):
        yield f"edge-set embedding not injective on {format_graph(G)}"
    if lat.zeta_is_bijective(G) != is_forest(G):
        yield f"edge-set bijectivity misclassifies {format_graph(G)}"
    if is_forest(G) and len(parts) != 2 ** len(G.edges):
        yield f"forest lattice size != 2^edges on {format_graph(G)}"


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
    """The first lattice law that the meet and join tables of L break, or None.

    Associativity compares whole rows: the row of i * j against the row of j
    read through the row of i (an `itemgetter`).  A row that differs, and the
    one-element lattice, whose getter returns a bare index, is rescanned
    element by element, so the law reported first is the same.  The last law
    ties the tables to the order: the down-set of a meet is the intersection
    of the down-sets, and the up-set of a join that of the up-sets."""
    N = range(len(L))
    meet = [tuple(L.meet_index(i, j) for j in N) for i in N]
    join = [tuple(L.join_index(i, j) for j in N) for i in N]
    if any(meet[i][i] != i or join[i][i] != i for i in N):
        return "idempotence"
    for i, j in itertools.product(N, repeat=2):
        if meet[i][j] != meet[j][i] or join[i][j] != join[j][i]:
            return "commutativity"
        if join[i][meet[i][j]] != i or meet[i][join[i][j]] != i:
            return "absorption"
    meet_row = [itemgetter(*row) for row in meet]
    join_row = [itemgetter(*row) for row in join]
    for i, j in itertools.product(N, repeat=2):
        if meet[meet[i][j]] == meet_row[j](meet[i]) and join[join[i][j]] == join_row[j](join[i]):
            continue
        for k in N:
            if meet[meet[i][j]][k] != meet[i][meet[j][k]]:
                return "meet associativity"
            if join[join[i][j]][k] != join[i][join[j][k]]:
                return "join associativity"
    bot, top = L.index(L.bottom), L.index(L.top)
    if any(meet[i][bot] != bot or join[i][top] != top for i in N):
        return "bounds"
    for i, j in itertools.product(N, repeat=2):
        if L.down[meet[i][j]] != L.down[i] & L.down[j] or L.up[join[i][j]] != L.up[i] & L.up[j]:
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
    covers = L.covers()
    if any(L.rank(L.elements[j]) != L.rank(L.elements[i]) + 1 for i, j in covers):
        yield f"cover does not raise rank by 1 on {format_graph(G)}"
    # p is covered once per edge of G/p: by merging the two blocks it joins
    if sorted(i for i, _ in covers) != [i for i, p in enumerate(L.elements)
                                        for _ in contract(G, p).edges]:
        yield f"covers above an element != edges of its contraction on {format_graph(G)}"


def _intervals(L):
    """Every pair p <= q of the lattice L, with their element indices i and j."""
    return ((i, j, p, q) for i, p in enumerate(L.elements) for j, q in enumerate(L.elements)
            if L.leq(i, j))


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
    reflects order on every interval.  Each r/p is built once per pair p <= r:
    the partition of the blocks of p, numbered as `contract` numbers them,
    that groups the p-blocks lying in one block of r."""
    L = lat.build_lattice(G)
    over = {(i, a): Partition.of_labels([L.elements[a].growth[b[0] - 1] for b in p.blocks])
            for i, p in enumerate(L.elements) for a in _bits(L.up[i])}
    for i, j, p, q in _intervals(L):
        box = L.up[i] & L.down[j]
        M = lat.build_lattice(L.quotient(i, j))
        by_image = sorted(_bits(box), key=lambda a: over[(i, a)].blocks)
        if [over[(i, a)] for a in by_image] == M.elements:
            at = {a: x for x, a in enumerate(by_image)}
            if all(sum(1 << at[b] for b in _bits(L.up[a] & box)) == M.up[x]
                   for a, x in at.items()):
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
    if ws.pchr_nc(disjoint_union(G, H)) != ws.wsym_element_product(ws.pchr_nc(G), ws.pchr_nc(H)):
        yield (f"noncommutative chromatic not an algebra morphism on "
               f"{format_graph(G)} * {format_graph(H)}")


@_each(_labeled)
def check_wsym_coalgebra_morphism(G):
    left = ws.wsym_element_coproduct(ws.pchr_nc(G))
    right = bi.delta_big_indexed(G).bind(
        lambda k: bilinear(ws.pchr_nc(k[0]), ws.pchr_nc(k[1]), lambda x, y: (x, y)))
    if left != right:
        yield f"noncommutative chromatic not a coalgebra morphism on {format_graph(G)}"


@_each(_labeled)
def check_wsym_action(G):
    if ws.pchr_nc(G) != ws.act_nc(G, ch.LAMBDA_CHR):
        yield f"chromatic element != acted packed-coloring morphism on {format_graph(G)}"


@_each(_labeled)
def check_wsym_words(G):
    if ws.expand(ws.pchr_nc(G)) != LinComb((tuple(f), 1) for f in ws.packed_valid_colorings(G)):
        yield f"word expansion != packed valid colorings on {format_graph(G)}"


@_each(_triangular_partitions)
def check_wsym_triangularity(p):
    n = p.n
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if p.block_of(i) is not p.block_of(j)]
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

def _run(max_n, timings, *rows):
    """Run each row, a check or a (check, cap) pair, at the size bound.  A
    `timings` dict gets, by check name, its seconds and its object count."""
    violations = []
    for row in rows:
        check, cap = row if isinstance(row, tuple) else (row, max_n)
        n = min(max_n, cap)
        start = time.perf_counter()
        violations.extend(check(n))
        if timings is not None:
            timings[check.__name__] = {"seconds": round(time.perf_counter() - start, 6),
                                       "objects": sum(1 for _ in check.objects(n))}
    return {"checks": len(rows), "violations": violations}


def suite_coassoc(max_n, timings=None):
    return _run(max_n, timings, check_coassociativity, check_cocommutativity,
                check_multiplicativity, check_grading)


def suite_counit(max_n, timings=None):
    return _run(max_n, timings, check_counit_laws)


def suite_cointeraction(max_n, timings=None):
    return _run(max_n, timings, check_cointeraction)


def suite_antipode(max_n, timings=None):
    return _run(max_n, timings, check_antipode_engines, check_antipode_law)


def suite_engines(max_n, timings=None):
    return _run(max_n, timings, check_chromatic_engines, check_character_engines,
                check_character_inverse, (check_monoid_laws, 4), (check_action_axioms, 4))


def suite_signs(max_n, timings=None):
    return _run(max_n, timings, check_rota_signs, check_sign_positivity, check_eval_at_one,
                check_complete_bound, check_monotonicity, check_forest_lambda, check_bridge_lemma)


def suite_stanley(max_n, timings=None):
    return _run(max_n, timings, check_stanley)


def suite_mobius(max_n, timings=None):
    return _run(max_n, timings, check_lattice_laws, check_lattice_grading, check_mobius_values,
                check_lattice_product, check_lattice_bridge, check_interval_isomorphism,
                check_zeta)


def suite_wsym(max_n, timings=None):
    return _run(max_n, timings, check_wsym_examples, (check_wsym_algebra_morphism, 4),
                (check_wsym_coalgebra_morphism, 4), check_wsym_action, check_wsym_words,
                (check_wsym_triangularity, 5), (check_wsym_cocommutativity, 5))


def suite_projection(max_n, timings=None):
    return _run(max_n, timings, check_projection_chromatic, (check_hilbert_algebra_morphism, 4),
                (check_varpi_morphism, 4))


SUITES = {name.removeprefix("suite_"): fn for name, fn in globals().items()
          if name.startswith("suite_")}
