import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from recurq import chains, fock, propagate, weyl

from oracles import as_skew, cleaned


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_polyop(rng, mode_count=2, max_degree=4, max_terms=4):
    """Random small polynomial with gaussian complex coefficients."""
    monos = weyl.enumerate_monomials(mode_count, range(mode_count), max_degree)
    picks = rng.choice(len(monos), size=rng.integers(1, max_terms + 1), replace=False)
    terms = {}
    for i in picks:
        terms[monos[i]] = complex(rng.standard_normal(), rng.standard_normal())
    return weyl.PolyOp(mode_count, terms)


def random_skew(rng, mode_count=1, max_degree=2, max_terms=3):
    A = random_polyop(rng, mode_count, max_degree, max_terms)
    S = cleaned(A - A.adjoint())
    if S.is_zero:
        return weyl.skew_generator(weyl.q(0, mode_count))
    return as_skew(S)


def chain_table(spec, dims, indices):
    """(truncation, table) of a chain's skew generators -iH_k for k in
    ``indices``, built from the spec as the CLI's chain-demo builds them."""
    tspec = chains.chain_truncation(spec, dims)
    _, hams = chains.control_system(spec)
    return tspec, propagate.EvolutionTable({k: -1j * fock.represent(hams[k], tspec)
                                            for k in sorted(indices)})


@pytest.fixture
def harmonic_32():
    spec = fock.TruncationSpec((32,), buffer=8)
    H = weyl.as_hermitian((weyl.p(0) * weyl.p(0) + weyl.q(0) * weyl.q(0)) * 0.5)
    return spec, fock.represent(H, spec)
