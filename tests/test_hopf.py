import contextlib
import io

import pytest

from cubalg import InvariantError
from cubalg.cli import EXIT_INVARIANT, dispatch
from cubalg.curves import CoordinateChange
from cubalg.hopf import (HopfAlgebroidPresentation, builtin_algebroid,
                         invariants_h0, ku_cp2_involution,
                         synthesize_weierstrass_algebroid)
from cubalg.series import TruncatedSeries


@pytest.fixture(scope="module")
def W():
    return builtin_algebroid("weierstrass")


def test_synthesized_structure_maps(W):
    assert W.eta_r["a1"].text() == "2*s + a1"
    assert W.delta["r"].text() == "r@2 + r@1"
    assert W.delta["s"].text() == "s@2 + s@1"
    assert W.delta["t"].text() == "t@2 + t@1 + s@1*r@2"
    assert W.chi_gamma["t"].text() == "-1*t + r*s"
    assert W.chi_gamma["r"].text() == "-1*r"


@pytest.mark.parametrize("name", ["weierstrass", "mqd", "z2_group"])
def test_all_axioms(name):
    H = builtin_algebroid(name)
    checks = H.verify()
    assert all(checks.values()), checks


@pytest.mark.parametrize("name", ["weierstrass", "mqd", "z2_group"])
def test_eta_r_monomial_matches_eta_r(name):
    # the multiplicative memo against the ring map on each A-monomial
    H = builtin_algebroid(name)
    for w in range(25):
        for m in H.A.monomials_of_weight(w):
            assert H.eta_R_monomial(m) == H.eta_R(H.A.poly({m: 1})), m
    assert H.eta_R_monomial((0,) * len(H.A.names)) == H.gamma.one()


@pytest.mark.parametrize("name", ["weierstrass", "mqd", "z2_group"])
def test_builtin_algebroid_is_built_once(name):
    H = builtin_algebroid(name)
    assert builtin_algebroid(name) is H
    assert H.axioms == H.verify() and all(H.axioms.values())


def _structure_texts(H):
    return ({n: p.text() for n, p in H.eta_r.items()},
            {n: p.text() for n, p in H.delta.items()},
            {n: p.text() for n, p in H.chi_gamma.items()})


def test_cli_leaves_the_shared_presentation_as_built():
    # the hopf verbs only read the shared presentation: its structure
    # maps after they ran equal a fresh build's
    for argv in (["hopf", "synthesize"],
                 ["hopf", "cobar", "--extended", "6"],
                 ["hopf", "h0"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(argv) == 0
    shared = builtin_algebroid("weierstrass")
    fresh = synthesize_weierstrass_algebroid()
    assert fresh is not shared
    assert _structure_texts(shared) == _structure_texts(fresh)


def test_synthesis_is_deterministic():
    a = synthesize_weierstrass_algebroid()
    b = synthesize_weierstrass_algebroid()
    assert all(a.delta[n] == b.delta[n] for n in a.gamma_names)


def test_chi_is_involution(W):
    for n in W.gamma_names:
        assert W.chi(W.chi_gamma[n]) == W.gamma.gen(n)


def test_h0_weierstrass(W):
    inv = invariants_h0(W, range(0, 13))
    ranks = {j: len(inv[j]) for j in inv}
    # modular forms: 1, 0, 0, 0, c4, 0, c6, 0, c4^2, 0, c4 c6, 0, rank 2
    assert [ranks[j] for j in range(13)] == \
        [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2]
    texts12 = [p.text() for p in inv[12]]
    assert len(texts12) == 2


def test_h0_mqd():
    H = builtin_algebroid("mqd")
    inv = invariants_h0(H, range(0, 5))
    # invariants form the polynomial ring on b^2 - 4c (weight 4 = 2j)
    assert [len(inv[j]) for j in range(5)] == [1, 0, 1, 0, 1]
    assert inv[2][0].text() == "-4*c + b^2"


def test_ku_cp2_involution():
    out = ku_cp2_involution()
    assert out["matrix"] == [[-1, 0], [1, 1]]
    assert out["involution"]
    assert out["is_swap"]
    assert out["swap_matrix"] == [[0, 1], [1, 0]]


def test_failed_axiom_is_invariant_error(monkeypatch):
    # builtin_algebroid keeps what it built: start from a fresh build
    builtin_algebroid.cache_clear()
    monkeypatch.setattr(HopfAlgebroidPresentation, "verify",
                        lambda self: {"antipode_laws": False})
    with pytest.raises(InvariantError, match="fails axioms: antipode_laws"):
        builtin_algebroid("mqd")
    assert dispatch(["hopf", "synthesize", "--algebroid", "mqd"]) \
        == EXIT_INVARIANT
    # a failed build is not kept: the next call builds and verifies again
    monkeypatch.undo()
    assert all(builtin_algebroid("mqd").axioms.values())


def test_composition_mismatch_is_invariant_error(monkeypatch):
    # a "composite" that drops the second change cannot match two steps
    builtin_algebroid.cache_clear()
    monkeypatch.setattr(CoordinateChange, "compose",
                        lambda self, second: self)
    with pytest.raises(InvariantError, match="composition mismatch"):
        synthesize_weierstrass_algebroid()
    assert dispatch(["hopf", "synthesize"]) == EXIT_INVARIANT


def test_involution_square_failure_is_invariant_error(monkeypatch):
    # x -> 2x in place of x -> x^-1 does not square to the identity
    monkeypatch.setattr(TruncatedSeries, "unit_inverse",
                        lambda self: self * 2)
    with pytest.raises(InvariantError, match="does not square"):
        ku_cp2_involution()
    assert dispatch(["hopf", "kucp2"]) == EXIT_INVARIANT
