"""Named identity suites over exhaustive small-graph enumerations.

Every check walks all isomorphism classes (or all labeled graphs, for the
indexed identities) up to a size bound and returns human-readable
counterexample strings; a suite bundles related checks.  The CLI `verify`
subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import math

from . import bialgebra as bi
from . import characters as ch
from . import chromatic as chrom
from . import lattice as lat
from . import wsym as ws
from .graphs import (
    Graph,
    Partition,
    acyclic_orientation_count,
    admissible_partitions,
    all_graphs,
    cc,
    complete,
    connected_components,
    connected_isoclasses,
    contract_edge,
    degree,
    delete_edge,
    disjoint_union,
    format_graph,
    is_bridge,
    isoclasses_up_to,
    restrict,
    set_partitions,
)
from .linear import LinComb, bilinear

# the indexed path whose two cointeraction routes genuinely disagree
INDEXED_PATH_WITNESS = Graph(3, [(1, 3), (2, 3)])


def _connected_up_to(n, start=1):
    for k in range(start, n + 1):
        yield from connected_isoclasses(k)


def is_forest(G):
    return len(G.edges) == G.n - cc(G)


# ---------------------------------------------------------------------------
# coproduct plumbing

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


# ---------------------------------------------------------------------------
# bialgebra checks

def check_coassociativity(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        for name, cop in (("restriction", bi.delta_big), ("contraction-extraction", bi.delta_small)):
            left, right = _coassoc_sides(cop, G)
            if left != right:
                out.append(f"{name} coproduct not coassociative on {format_graph(G)}")
    return out


def check_cocommutativity(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        if _swap_legs(bi.delta_big(G)) != bi.delta_big(G):
            out.append(f"restriction coproduct not cocommutative on {format_graph(G)}")
    # the contraction-extraction coproduct must NOT be cocommutative; the
    # two-vertex complete graph is the smallest witness
    if max_n >= 2:
        K2 = complete(2)
        if _swap_legs(bi.delta_small(K2)) == bi.delta_small(K2):
            out.append("contraction-extraction coproduct unexpectedly cocommutative on 2: 1-2")
    return out


def check_counit_laws(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        ident = LinComb.term(bi.iso(G))
        for name, cop, counit in (("restriction", bi.delta_big, bi.counit_big),
                                  ("contraction-extraction", bi.delta_small, bi.counit_small)):
            pairs = cop(G)
            left = LinComb((b, c * counit(LinComb.term(a))) for (a, b), c in pairs.items())
            right = LinComb((a, c * counit(LinComb.term(b))) for (a, b), c in pairs.items())
            if left != ident or right != ident:
                out.append(f"counit law fails for {name} coproduct on {format_graph(G)}")
    return out


def check_multiplicativity(max_n):
    out = []
    reps = list(isoclasses_up_to(max_n))
    for G in reps:
        for H in reps:
            if G.n + H.n > max_n or G.n == 0 or H.n == 0:
                continue
            GH = disjoint_union(G, H)
            for name, cop in (("restriction", bi.delta_big),
                              ("contraction-extraction", bi.delta_small)):
                if cop(GH) != _pair_element_mul(cop(G), cop(H)):
                    out.append(f"{name} coproduct not multiplicative on "
                               f"{format_graph(G)} * {format_graph(H)}")
    return out


def check_grading(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        for (a, b), _ in bi.delta_big(G).items():
            if bi.mono_vertices(a) + bi.mono_vertices(b) != G.n:
                out.append(f"vertex grading broken in restriction coproduct of {format_graph(G)}")
                break
        for (a, b), _ in bi.delta_small(G).items():
            if bi.mono_degree(a) + bi.mono_degree(b) != degree(G):
                out.append(f"degree grading broken in contraction-extraction of {format_graph(G)}")
                break
    return out


def check_cointeraction(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        if bi.cointeraction_lhs(G) != bi.cointeraction_rhs(G):
            out.append(f"cointeraction identity fails on {format_graph(G)}")
    if max_n >= 3:
        W = INDEXED_PATH_WITNESS
        if bi.cointeraction_lhs(W, indexed=True) == bi.cointeraction_rhs(W, indexed=True):
            out.append("indexed cointeraction unexpectedly holds on the labeled path 3: 1-3, 2-3")
    return out


def check_antipode_engines(max_n):
    out = []
    for G in _connected_up_to(max_n, start=2):
        if bi.antipode_forest(G) != bi.antipode_recursive(G):
            out.append(f"antipode engines disagree on {format_graph(G)}")
    return out


def check_antipode_law(max_n):
    out = []
    for G in _connected_up_to(max_n, start=2):
        total = bi.delta_small(G).bind(lambda k: bi.mono_element_mul(
            bi.antipode_element(LinComb.term(bi.strip_units(k[0]))),
            LinComb.term(bi.strip_units(k[1]))))
        if total:
            out.append(f"antipode convolution law fails on {format_graph(G)}")
    return out


# ---------------------------------------------------------------------------
# chromatic engines and character monoid

def check_chromatic_engines(max_n, color_bound=4):
    out = []
    for G in isoclasses_up_to(max_n):
        polys = {name: engine(G) for name, engine in chrom.ENGINES.items()}
        if len(set(polys.values())) != 1:
            out.append(f"chromatic engines disagree on {format_graph(G)}")
            continue
        P = polys["delcon"]
        for k in range(color_bound + 1):
            if P(k) != chrom.count_valid_colorings(G, k):
                out.append(f"coloring count mismatch on {format_graph(G)} at k={k}")
                break
    return out


def check_character_engines(max_n):
    out = []
    for G in _connected_up_to(max_n):
        values = {ch.chr_delcon(G), ch.chr_forest(G), ch.chr_derivative(G)}
        if len(values) != 1:
            out.append(f"chromatic character engines disagree on {format_graph(G)}")
    return out


def check_character_inverse(max_n):
    out = []
    inv0 = ch.invert_character(ch.LAMBDA_ZERO)
    for G in _connected_up_to(max_n):
        if ch.convolve_value(ch.LAMBDA_CHR, ch.LAMBDA_ZERO, G) != ch.EPSILON_PRIME(G):
            out.append(f"chromatic * all-ones != counit on {format_graph(G)}")
        if ch.convolve_value(ch.LAMBDA_ZERO, ch.LAMBDA_CHR, G) != ch.EPSILON_PRIME(G):
            out.append(f"all-ones * chromatic != counit on {format_graph(G)}")
        if inv0(G) != ch.LAMBDA_CHR(G):
            out.append(f"inverse of all-ones != chromatic character on {format_graph(G)}")
    return out


def check_monoid_laws(max_n):
    """Associativity of convolution with unit the counit, on small graphs."""
    out = []
    chars = [ch.EPSILON_PRIME, ch.LAMBDA_ZERO, ch.LAMBDA_CHR]
    graphs = list(isoclasses_up_to(max_n))
    for G in graphs:
        for lam in chars:
            if ch.convolve_value(ch.EPSILON_PRIME, lam, G) != lam(G) \
                    or ch.convolve_value(lam, ch.EPSILON_PRIME, G) != lam(G):
                out.append(f"counit is not a convolution unit on {format_graph(G)}")
    for a, b, c in itertools.product(chars, repeat=3):
        left = ch.convolve(ch.convolve(a, b), c)
        right = ch.convolve(a, ch.convolve(b, c))
        for G in graphs:
            if left(G) != right(G):
                out.append(f"convolution not associative on {format_graph(G)}")
    return out


def check_action_axioms(max_n):
    out = []
    pairs = [(ch.LAMBDA_ZERO, ch.LAMBDA_CHR), (ch.LAMBDA_CHR, ch.LAMBDA_CHR),
             (ch.LAMBDA_CHR, ch.LAMBDA_ZERO)]
    for G in isoclasses_up_to(max_n):
        if ch.act(chrom.phi_zero, ch.EPSILON_PRIME)(G) != chrom.phi_zero(G):
            out.append(f"acting by the counit is not the identity on {format_graph(G)}")
        for lam, mu in pairs:
            stepwise = ch.act(ch.act(chrom.phi_zero, lam), mu)(G)
            direct = ch.act(chrom.phi_zero, ch.convolve(lam, mu))(G)
            if stepwise != direct:
                out.append(f"action axiom fails on {format_graph(G)}")
    return out


# ---------------------------------------------------------------------------
# coefficient signs and forest characterizations

def check_rota_signs(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        P = chrom.pchr_deletion_contraction(G)
        lo, hi = cc(G), G.n
        for i in range(hi + 2):
            a = P.coeff(i)
            if lo <= i <= hi:
                if a == 0 or (a > 0) != ((hi - i) % 2 == 0):
                    out.append(f"coefficient sign pattern fails on {format_graph(G)} at X^{i}")
                    break
            elif a != 0:
                out.append(f"coefficient support too wide on {format_graph(G)} at X^{i}")
                break
        if G.n >= 1 and -P.coeff(G.n - 1) != len(G.edges):
            out.append(f"subleading coefficient != -#edges on {format_graph(G)}")
    return out


def check_sign_positivity(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        if ch.LAMBDA_CHR_TILDE(G) < 1:
            out.append(f"signed chromatic character < 1 on {format_graph(G)}")
    return out


def check_eval_at_one(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        if chrom.pchr_deletion_contraction(G)(1) != ch.EPSILON_PRIME(G):
            out.append(f"chromatic polynomial at 1 != counit on {format_graph(G)}")
    return out


def check_complete_bound(max_n):
    out = []
    for G in _connected_up_to(max_n):
        value = abs(ch.LAMBDA_CHR(G))
        bound = math.factorial(G.n - 1)
        if value > bound:
            out.append(f"character bound exceeded on {format_graph(G)}")
        if (value == bound) != (G == complete(G.n)):
            out.append(f"character bound equality mischaracterized on {format_graph(G)}")
    return out


def check_monotonicity(max_n):
    """Adding one edge never lowers |chromatic character|; single-edge steps
    compose to the full subset relation."""
    out = []
    for G in isoclasses_up_to(max_n):
        present = set(G.edges)
        for e in complete(G.n).edges:
            if e in present:
                continue
            H = Graph(G.n, list(G.edges) + [e])
            if abs(ch.LAMBDA_CHR(G)) > abs(ch.LAMBDA_CHR(H)):
                out.append(f"|character| drops when adding {e} to {format_graph(G)}")
    return out


def check_forest_lambda(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        if (abs(ch.LAMBDA_CHR(G)) == 1) != is_forest(G):
            out.append(f"|character| = 1 misclassifies {format_graph(G)}")
    return out


def check_bridge_lemma(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        for e in G.edges:
            if not is_bridge(G, e):
                continue
            value = ch.LAMBDA_CHR(G)
            if value != -ch.LAMBDA_CHR(delete_edge(G, e)) or value != -ch.LAMBDA_CHR(contract_edge(G, e)):
                out.append(f"bridge lemma fails on {format_graph(G)} at edge {e}")
    return out


def check_zeta(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        parts = list(admissible_partitions(G))
        images = [lat.zeta(G, p) for p in parts]
        for (p, zp), (q, zq) in itertools.combinations(zip(parts, images), 2):
            if (p.refines(q)) != (zp <= zq) or (q.refines(p)) != (zq <= zp):
                out.append(f"edge-set embedding not an order embedding on {format_graph(G)}")
                break
        if len(set(images)) != len(images):
            out.append(f"edge-set embedding not injective on {format_graph(G)}")
        if lat.zeta_is_bijective(G) != is_forest(G):
            out.append(f"edge-set bijectivity misclassifies {format_graph(G)}")
        if is_forest(G) and len(parts) != 2 ** len(G.edges):
            out.append(f"forest lattice size != 2^edges on {format_graph(G)}")
    return out


# ---------------------------------------------------------------------------
# negative values

def check_stanley(max_n, ks=(1, 2, 3)):
    out = []
    for G in isoclasses_up_to(max_n):
        P = chrom.pchr_deletion_contraction(G)
        for k in ks:
            expected = (-1) ** G.n * P(-k)
            fam = chrom.stanley_families(G, k)
            pairs = chrom.stanley_pairs(G, k)
            if expected != fam:
                out.append(f"block-family count != (-1)^n P(-{k}) on {format_graph(G)}")
            if expected != pairs:
                out.append(f"monotone-pair count != (-1)^n P(-{k}) on {format_graph(G)}")
            if k == 1 and expected != acyclic_orientation_count(G):
                out.append(f"P(-1) != acyclic orientation count on {format_graph(G)}")
    return out


# ---------------------------------------------------------------------------
# lattice checks

def check_lattice_laws(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        L = lat.build_lattice(G)
        n = len(L)
        meet_t = [[L.index(L.meet(L.elements[i], L.elements[j])) for j in range(n)]
                  for i in range(n)]
        join_t = [[L.index(L.join(L.elements[i], L.elements[j])) for j in range(n)]
                  for i in range(n)]
        broken = None
        for i in range(n):
            if meet_t[i][i] != i or join_t[i][i] != i:
                broken = "idempotence"
        for i in range(n):
            for j in range(n):
                if meet_t[i][j] != meet_t[j][i] or join_t[i][j] != join_t[j][i]:
                    broken = broken or "commutativity"
                if join_t[i][meet_t[i][j]] != i or meet_t[i][join_t[i][j]] != i:
                    broken = broken or "absorption"
        for i, j, k in itertools.product(range(n), repeat=3):
            if meet_t[meet_t[i][j]][k] != meet_t[i][meet_t[j][k]]:
                broken = broken or "meet associativity"
                break
            if join_t[join_t[i][j]][k] != join_t[i][join_t[j][k]]:
                broken = broken or "join associativity"
                break
        bot, top = L.index(L.bottom), L.index(L.top)
        for i in range(n):
            if meet_t[i][bot] != bot or join_t[i][top] != top:
                broken = broken or "bounds"
        if broken:
            out.append(f"lattice {broken} fails on {format_graph(G)}")
    return out


def check_lattice_grading(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        L = lat.build_lattice(G)
        for i, j in L.covers():
            if L.rank(L.elements[j]) != L.rank(L.elements[i]) + 1:
                out.append(f"cover does not raise rank by 1 on {format_graph(G)}")
                break
    return out


def check_mobius_values(max_n):
    out = []
    for G in _connected_up_to(max_n):
        L = lat.build_lattice(G)
        for i, p in enumerate(L.elements):
            for j, q in enumerate(L.elements):
                if not L.leq[i][j]:
                    continue
                if L.mobius(p, q) != ch.LAMBDA_CHR(lat.interval_quotient(G, p, q)):
                    out.append(f"Mobius value != character of interval quotient "
                               f"on {format_graph(G)} at [{p}, {q}]")
        if L.mobius(L.bottom, L.top) != ch.LAMBDA_CHR(G):
            out.append(f"Mobius of the full interval != chromatic character on {format_graph(G)}")
    return out


def check_lattice_product(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        size = len(lat.build_lattice(G))
        expected = 1
        for comp in connected_components(G):
            expected *= len(lat.build_lattice(restrict(G, comp)))
        if size != expected:
            out.append(f"lattice size not multiplicative over components on {format_graph(G)}")
    return out


def check_lattice_bridge(max_n):
    out = []
    for G in isoclasses_up_to(max_n):
        for e in G.edges:
            if is_bridge(G, e):
                if len(lat.build_lattice(G)) != 2 * len(lat.build_lattice(contract_edge(G, e))):
                    out.append(f"bridge factorization fails on {format_graph(G)} at {e}")
    return out


def _quotient_partition(r, p):
    """r/p for r >= p: the partition of the blocks of p, numbered as `contract`
    numbers them, that groups the p-blocks lying in one block of r."""
    groups = {}
    for i, b in enumerate(p.blocks):
        groups.setdefault(r.block_of(b[0]), []).append(i + 1)
    return Partition(len(p), groups.values())


def check_interval_isomorphism(max_n):
    """Intervals [p, q] are order-isomorphic to the lattice of (G|q)/p through
    the explicit map r -> r/p, checked to be a bijection that preserves and
    reflects order on every interval."""
    out = []
    for G in _connected_up_to(max_n):
        L = lat.build_lattice(G)
        for i, p in enumerate(L.elements):
            for j, q in enumerate(L.elements):
                if not L.leq[i][j]:
                    continue
                inside = L.interval(p, q)
                M = lat.build_lattice(lat.interval_quotient(G, p, q))
                image = [_quotient_partition(L.elements[a], p) for a in inside]
                if sorted(image) == M.elements:
                    at = [M.index(r) for r in image]
                    if all(L.leq[a][b] == M.leq[x][y]
                           for a, x in zip(inside, at) for b, y in zip(inside, at)):
                        continue
                out.append(f"r -> r/p is not an order isomorphism onto the quotient lattice "
                           f"on {format_graph(G)} at [{p}, {q}]")
    return out


# ---------------------------------------------------------------------------
# word symmetric functions

def _labeled_up_to(n):
    for k in range(n + 1):
        yield from all_graphs(k)


def check_wsym_examples():
    out = []
    P12 = Partition(2, [(1, 2)])
    P1 = Partition(1, [(1,)])
    P1_2 = Partition(2, [(1,), (2,)])
    prod1 = ws.wsym_product(P12, P1)
    want1 = LinComb.term(Partition(3, [(1, 2), (3,)])) + LinComb.term(Partition(3, [(1, 2, 3)]))
    if prod1 != want1:
        out.append("product of the one-block pair with a point is wrong")
    prod2 = ws.wsym_product(P1_2, P1)
    want2 = (LinComb.term(Partition(3, [(1,), (2,), (3,)]))
             + LinComb.term(Partition(3, [(1, 3), (2,)]))
             + LinComb.term(Partition(3, [(1,), (2, 3)])))
    if prod2 != want2:
        out.append("product of the two-singleton element with a point is wrong")
    p = Partition(4, [(1, 3), (2,), (4,)])
    cop = ws.wsym_coproduct(p)
    empty = Partition(0, [])
    want = (LinComb.term((p, empty)) + LinComb.term((empty, p))
            + LinComb.term((Partition(3, [(1, 3), (2,)]), P1))
            + LinComb.term((Partition(3, [(1, 2), (3,)]), P1))
            + LinComb.term((P1_2, P12))
            + LinComb.term((P12, P1_2))
            + LinComb.term((P1, Partition(3, [(1, 2), (3,)])))
            + LinComb.term((P1, Partition(3, [(1, 3), (2,)]))))
    if cop != want:
        out.append("coproduct of the four-point three-block element is wrong")
    return out


def check_wsym_algebra_morphism(max_n):
    out = []
    for a in range(1, max_n):
        for b in range(1, max_n - a + 1):
            for G in all_graphs(a):
                for H in all_graphs(b):
                    left = ws.pchr_nc(disjoint_union(G, H))
                    right = ws.wsym_element_product(ws.pchr_nc(G), ws.pchr_nc(H))
                    if left != right:
                        out.append(f"noncommutative chromatic not an algebra morphism on "
                                   f"{format_graph(G)} * {format_graph(H)}")
    return out


def check_wsym_coalgebra_morphism(max_n):
    out = []
    for G in _labeled_up_to(max_n):
        left = ws.wsym_element_coproduct(ws.pchr_nc(G))
        right = bi.delta_big_indexed(G).bind(
            lambda k: bilinear(ws.pchr_nc(k[0]), ws.pchr_nc(k[1]), lambda x, y: (x, y)))
        if left != right:
            out.append(f"noncommutative chromatic not a coalgebra morphism on {format_graph(G)}")
    return out


def check_wsym_action(max_n):
    out = []
    for G in _labeled_up_to(max_n):
        if ws.pchr_nc(G) != ws.act_nc(G, ch.LAMBDA_CHR):
            out.append(f"chromatic element != acted packed-coloring morphism on {format_graph(G)}")
    return out


def check_wsym_words(max_n):
    out = []
    for G in _labeled_up_to(max_n):
        direct = LinComb((tuple(f), 1) for f in ws.packed_valid_colorings(G))
        if ws.expand(ws.pchr_nc(G)) != direct:
            out.append(f"word expansion != packed valid colorings on {format_graph(G)}")
    return out


def check_wsym_triangularity(max_n, block_cap=3):
    out = []
    for n in range(1, max_n + 1):
        for p in set_partitions(n):
            if len(p) > block_cap:
                continue
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if p.block_of(i) is not p.block_of(j)]
            P = ws.pchr_nc(Graph(n, edges))
            if P.coeff(p) != 1:
                out.append(f"triangular leading term missing for {p}")
                continue
            if any(len(q) <= len(p) for q in P.keys() if q != p):
                out.append(f"non-triangular lower term for {p}")
    return out


def check_wsym_cocommutativity(max_n):
    out = []
    for n in range(max_n + 1):
        for p in set_partitions(n):
            cop = ws.wsym_coproduct(p)
            if _swap_legs(cop) != cop:
                out.append(f"W coproduct not cocommutative on {p}")
    return out


# ---------------------------------------------------------------------------
# projections to polynomials and to isoclasses

def check_projection_chromatic(max_n):
    out = []
    for G in _labeled_up_to(max_n):
        if ws.hilbert_morphism(ws.pchr_nc(G)) != chrom.pchr_deletion_contraction(G):
            out.append(f"Hilbert projection of chromatic element is wrong on {format_graph(G)}")
        if ws.hilbert_morphism(ws.phi0_nc(G)) != chrom.phi_zero(G):
            out.append(f"Hilbert projection of coloring morphism is wrong on {format_graph(G)}")
    return out


def check_hilbert_algebra_morphism(max_deg):
    out = []
    parts = [p for n in range(max_deg + 1) for p in set_partitions(n)]
    for p in parts:
        for q in parts:
            if p.n + q.n > max_deg:
                continue
            left = ws.hilbert_morphism(ws.wsym_product(p, q))
            right = ws.hilbert_morphism(LinComb.term(p)) * ws.hilbert_morphism(LinComb.term(q))
            if left != right:
                out.append(f"Hilbert projection not multiplicative on {p}, {q}")
    return out


def check_varpi_morphism(max_n):
    out = []
    for G in _labeled_up_to(max_n):
        left_big = bi.delta_big(bi.varpi(LinComb.term(G)))
        right_big = bi.delta_big_indexed(G).map_keys(lambda k: (bi.iso(k[0]), bi.iso(k[1])))
        if left_big != right_big:
            out.append(f"isoclass projection not a restriction-coproduct morphism "
                       f"on {format_graph(G)}")
        left_small = bi.delta_small(bi.varpi(LinComb.term(G)))
        right_small = bi.delta_small_indexed(G).map_keys(lambda k: (bi.iso(k[0]), bi.iso(k[1])))
        if left_small != right_small:
            out.append(f"isoclass projection not a contraction-extraction morphism "
                       f"on {format_graph(G)}")
    return out


# ---------------------------------------------------------------------------
# suites

def _run(checks, max_n):
    violations = []
    for fn, arg in checks:
        violations.extend(fn(arg) if arg is not None else fn())
    return {"checks": len(checks), "violations": violations}


def suite_coassoc(max_n):
    return _run([(check_coassociativity, max_n), (check_cocommutativity, max_n),
                 (check_multiplicativity, max_n), (check_grading, max_n)], max_n)


def suite_counit(max_n):
    return _run([(check_counit_laws, max_n)], max_n)


def suite_cointeraction(max_n):
    return _run([(check_cointeraction, max_n)], max_n)


def suite_antipode(max_n):
    return _run([(check_antipode_engines, max_n), (check_antipode_law, max_n)], max_n)


def suite_engines(max_n):
    return _run([(check_chromatic_engines, max_n), (check_character_engines, max_n),
                 (check_character_inverse, max_n), (check_monoid_laws, min(max_n, 4)),
                 (check_action_axioms, min(max_n, 4))], max_n)


def suite_signs(max_n):
    return _run([(check_rota_signs, max_n), (check_sign_positivity, max_n),
                 (check_eval_at_one, max_n), (check_complete_bound, max_n),
                 (check_monotonicity, max_n), (check_forest_lambda, max_n),
                 (check_bridge_lemma, max_n)], max_n)


def suite_stanley(max_n):
    return _run([(check_stanley, max_n)], max_n)


def suite_mobius(max_n):
    return _run([(check_lattice_laws, max_n), (check_lattice_grading, max_n),
                 (check_mobius_values, max_n), (check_lattice_product, max_n),
                 (check_lattice_bridge, max_n), (check_interval_isomorphism, max_n),
                 (check_zeta, max_n)], max_n)


def suite_wsym(max_n):
    return _run([(check_wsym_examples, None),
                 (check_wsym_algebra_morphism, min(max_n, 4)),
                 (check_wsym_coalgebra_morphism, min(max_n, 4)),
                 (check_wsym_action, max_n),
                 (check_wsym_words, max_n),
                 (check_wsym_triangularity, min(max_n, 5)),
                 (check_wsym_cocommutativity, min(max_n, 5))], max_n)


def suite_projection(max_n):
    return _run([(check_projection_chromatic, max_n),
                 (check_hilbert_algebra_morphism, min(max_n, 4)),
                 (check_varpi_morphism, min(max_n, 4))], max_n)


SUITES = {
    "coassoc": suite_coassoc,
    "counit": suite_counit,
    "cointeraction": suite_cointeraction,
    "antipode": suite_antipode,
    "engines": suite_engines,
    "signs": suite_signs,
    "stanley": suite_stanley,
    "mobius": suite_mobius,
    "wsym": suite_wsym,
    "projection": suite_projection,
}
