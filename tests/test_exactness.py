"""Property test: every coefficient and value is exact, `int` or `Fraction`.

Coefficients stay plain ints until a division; a float anywhere means an
int `/` int slipped in.  `format_rational` refuses floats, but only for the
values that reach the output; this test checks the intermediate ones too.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from graph_hopf import bialgebra as bi
from graph_hopf import characters as ch
from graph_hopf import chromatic as chrom
from graph_hopf import lattice as lat
from graph_hopf import wsym as ws
from graph_hopf.graphs import Graph, Partition, complete, connected_components, restrict
from graph_hopf.linear import LinComb, Polynomial

from helpers import hilbert_by_fractions

TWO = ch.Character(lambda G: 2, "two")


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def assert_exact(what, values):
    for v in values:
        assert type(v) in (int, Fraction), f"{what} gave {v!r} of type {type(v).__name__}"


def coeffs(x):
    return [c for _, c in x.items()]


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_every_value_is_int_or_fraction(G):
    assert_exact("delta_big", coeffs(bi.delta_big(G)))
    assert_exact("delta_small", coeffs(bi.delta_small(G)))
    for comp in connected_components(G):
        if len(comp) >= 2:
            C = restrict(G, comp)
            assert_exact("antipode_forest", coeffs(bi.antipode_forest(C)))
            assert_exact("antipode_recursive", coeffs(bi.antipode_recursive(C)))
    for name, engine in chrom.ENGINES.items():
        assert_exact(f"pchr engine {name}", engine(G).coeffs)
    assert_exact("LAMBDA_CHR", [ch.LAMBDA_CHR(G)])
    assert_exact("inverse of LAMBDA_ZERO", [ch.invert_character(ch.LAMBDA_ZERO)(G)])
    assert_exact("inverse of the constant 2", [ch.invert_character(TWO)(G)])
    for lam in (ch.LAMBDA_CHR, ch.invert_character(TWO)):
        assert_exact(f"W-valued action by {lam.name}", coeffs(ch.act(ws.phi0_nc, lam)(G)))
        assert_exact(f"convolution by {lam.name}", [ch.act(ch.LAMBDA_CHR, lam)(G),
                                                    ch.act(lam, TWO)(G)])
    element = ws.pchr_nc(G)
    assert_exact("pchr_nc", coeffs(element))
    assert_exact("phi0_nc", coeffs(ws.phi0_nc(G)))
    assert_exact("hilbert_morphism", ws.hilbert_morphism(element).coeffs)
    L = lat.build_lattice(G)
    assert_exact("mobius", [L.mobius(p, q) for i, p in enumerate(L.elements)
                            for j, q in enumerate(L.elements) if L.leq(i, j)])


def test_projection_divides_only_word_coefficients():
    """W keys project to falling factorials, so an int W element projects to
    int coefficients; a word's coefficient is divided by max(w)!, exactly.
    The package projects W keys only, so words go through the tests' oracle,
    and the W element with the same projection keeps its Fractions exact."""
    for G in (Graph(0), complete(1), Graph(4, [(1, 2), (2, 3)]), complete(5)):
        for x in (ws.pchr_nc(G), ws.phi0_nc(G)):
            assert all(type(c) is int for c in ws.hilbert_morphism(x).coeffs)
    # (1/3) * X(X-1)/2 + 2 * X, from words and from (1/6) W{1}{2} + 2 W{12}
    x = LinComb([((1, 2), Fraction(1, 3)), ((1, 1), 2)])
    got = hilbert_by_fractions(x)
    assert got == Polynomial([0, Fraction(11, 6), Fraction(1, 6)])
    assert_exact("hilbert projection of words", got.coeffs)
    w = LinComb([(Partition.singletons(2), Fraction(1, 6)), (Partition(2, [(1, 2)]), 2)])
    assert ws.hilbert_morphism(w) == got
    assert_exact("hilbert_morphism of a Fraction W element", ws.hilbert_morphism(w).coeffs)


def test_inverse_of_constant_two_is_not_integral():
    """Its values are Fractions, and so are the weights an action by it adds
    up per quotient before they multiply phi's value."""
    inv = ch.invert_character(TWO)
    assert inv(complete(1)) == Fraction(1, 2)
    assert inv(complete(2)) == Fraction(-1, 4)
    # phi0(K2) (1/2)^2 + phi0(K1) (-1/4), with phi0(K2) = W{1} + W{1}{2}, phi0(K1) = W{1}
    acted = ch.act(ws.phi0_nc, inv)(complete(2))
    assert acted == LinComb([(Partition.singletons(2), Fraction(1, 4))])
    assert_exact("W-valued action by the inverse of 2", coeffs(acted))
    for G in (complete(3), Graph(4, [(1, 3), (2, 4), (3, 4)])):
        unit = ch.act(inv, TWO)(G)  # (2)^-1 * 2 is the counit
        assert unit == ch.EPSILON_PRIME(G) and type(unit) is Fraction
