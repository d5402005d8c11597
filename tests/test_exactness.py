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
from graph_hopf.graphs import Graph, complete, connected_components, restrict

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
    element = ws.pchr_nc(G)
    assert_exact("pchr_nc", coeffs(element))
    assert_exact("phi0_nc", coeffs(ws.phi0_nc(G)))
    assert_exact("hilbert_morphism", ws.hilbert_morphism(element).coeffs)
    L = lat.build_lattice(G)
    assert_exact("mobius", [L.mobius(p, q) for i, p in enumerate(L.elements)
                            for j, q in enumerate(L.elements) if L.leq(i, j)])


def test_inverse_of_constant_two_is_not_integral():
    inv = ch.invert_character(TWO)
    assert inv(complete(1)) == Fraction(1, 2)
    assert inv(complete(2)) == Fraction(-1, 4)
