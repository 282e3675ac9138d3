"""Decode and encode in jsonio are inverse on every shape the CLI reads and
writes back, with the JSON text in between."""

import json
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodforms import jsonio
from periodforms.covers import BranchedTorusCover, Permutation, commutator, is_connected
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational
from periodforms.symplectic_lattice import Sublattice

rationals = st.fractions(max_denominator=10**12) | st.integers(-10**30, 10**30).map(Fraction)


def through_json(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


@given(rationals)
def test_rational_round_trip(q):
    text = through_json(jsonio.encode_rational(q))
    decoded = jsonio.decode_rational(text)
    assert decoded == q and jsonio.encode_rational(decoded) == text


@given(rationals, rationals)
def test_gaussian_round_trip(re, im):
    z = GaussianRational(re, im)
    pair = through_json(jsonio.encode_gaussian(z))
    decoded = jsonio.decode_gaussian(pair)
    assert decoded == z and jsonio.encode_gaussian(decoded) == pair


@st.composite
def sublattices(draw):
    genus = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2 * genus))
    entries = st.integers(-50, 50)
    vectors = draw(st.lists(st.lists(entries, min_size=2 * genus, max_size=2 * genus),
                            min_size=rank, max_size=rank))
    try:
        return Sublattice(vectors, genus=genus)
    except DomainError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(sublattices())
def test_sublattice_round_trip(lattice):
    doc = through_json(jsonio.encode_sublattice(lattice))
    decoded = jsonio.decode_sublattice(doc)
    assert decoded.same_lattice(lattice)
    assert jsonio.encode_sublattice(decoded) == doc


permutations = st.integers(1, 7).flatmap(lambda d: st.permutations(range(d)))


@given(permutations)
def test_permutation_round_trip(images):
    p = Permutation(images)
    doc = through_json(jsonio.encode_permutation(p))
    decoded = jsonio.decode_permutation(doc)
    assert decoded == p and jsonio.encode_permutation(decoded) == doc


@st.composite
def covers(draw):
    d = draw(st.integers(1, 6))
    perm = st.permutations(range(d)).map(Permutation)
    a, b = draw(perm), draw(perm)
    branch = draw(st.lists(perm, max_size=3))
    # the last branch permutation closes the relation [a,b]*c_1*...*c_k = id
    word = commutator(a, b)
    for c in branch:
        word = word.compose(c)
    branch.append(word.inverse())
    assume(is_connected([a, b, *branch]))
    return BranchedTorusCover(a, b, branch)


@settings(max_examples=60, deadline=None)
@given(covers())
def test_cover_round_trip(cover):
    doc = through_json(jsonio.encode_cover(cover))
    decoded = jsonio.decode_cover(doc)
    assert (decoded.a, decoded.b, decoded.branch) == (cover.a, cover.b, cover.branch)
    assert jsonio.encode_cover(decoded) == doc
