"""Every output that goes through rational_kernel or rational_solve, every
multiplication-map dimension and verdict, the saturations, lattice
invariants, line verdicts and Sp(2g, Z) extensions of the periods path, the
polynomial gcd and squarefree test, the quartic smoothness and cross-ratio
verdicts with the form values behind them, the exact residues and section
values, the cover invariants, period lattices and origami genera, the Sp(2g, Z) maps between complete rank-2 and rank-4
sublattices with their refusals, and every bit of the floats the curve
queries return, on a seeded corpus, against the digests in
pin_corpus.json.  On a failure, `PYTHONPATH=src python
tests/pin_corpus.py --check` names the first differing call of each
family."""

import pytest

import pin_corpus


@pytest.mark.parametrize("family", sorted(pin_corpus.FAMILIES))
def test_pinned_family(family):
    assert pin_corpus.first_difference(family, pin_corpus.load_pins()) is None
