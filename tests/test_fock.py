import cmath
import math

import pytest

from fockproj import (
    DimensionMismatchError,
    FockState,
    InvalidOccupationError,
    StateEnsemble,
    basis_ket,
    fidelity,
    inner_product,
    tensor,
)


def test_basis_ket_single_term():
    state = basis_ket((1, 1, 0, 0))
    assert state.amplitude((1, 1, 0, 0)) == 1.0
    assert len(state) == 1
    assert state.normalized


def test_basis_ket_vacuum():
    vac = basis_ket((0, 0))
    assert vac.norm() == 1.0


def test_basis_ket_multi_photon_normalized():
    # the 1/sqrt(2! 2!) factor is folded into the ket convention
    state = basis_ket((2, 2, 0, 0))
    assert abs(state.norm_squared() - 1.0) < 1e-15


def test_basis_ket_rejects_negative_entry():
    with pytest.raises(InvalidOccupationError):
        basis_ket((1, -1))


def test_basis_ket_rejects_photon_bound():
    with pytest.raises(InvalidOccupationError):
        basis_ket((9, 0))
    # exactly the bound is accepted
    state = basis_ket((8, 0))
    assert state.normalized


def test_inner_product_orthogonal_kets():
    assert inner_product(basis_ket((1, 0)), basis_ket((0, 1))) == 0j


def test_inner_product_self_is_one():
    psi = (basis_ket((1, 0)) + basis_ket((0, 1))).normalize()
    assert abs(inner_product(psi, psi) - 1.0) < 1e-15


def test_inner_product_hom_overlap_is_cos_gamma():
    # overlap of the delayed two-photon state with its gamma = 0 version
    def hom(g):
        return FockState(4, {(1, 1, 0, 0): math.cos(g), (1, 0, 0, 1): math.sin(g)})

    for g in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
        overlap = inner_product(hom(0.0), hom(g))
        assert abs(overlap - math.cos(g)) < 1e-14


def test_inner_product_conjugate_linear_in_bra():
    a = basis_ket((1, 0))
    b = basis_ket((0, 1))
    z = complex(0.3, -0.8)
    psi = (a + z * b).normalize()
    phi = (a + b).normalize()
    lhs = inner_product(z * psi, phi)
    rhs = z.conjugate() * inner_product(psi, phi)
    assert abs(lhs - rhs) < 1e-14


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(basis_ket((1, 0)), basis_ket((1, 0, 0)))


def test_tensor_basis_kets():
    state = tensor(basis_ket((1, 1)), basis_ket((0, 0)))
    assert state.amplitude((1, 1, 0, 0)) == 1.0


def test_tensor_bilinear():
    alpha = complex(0.2, 0.5)
    state = tensor(alpha * basis_ket((1, 0)), basis_ket((0, 1)))
    assert abs(state.amplitude((1, 0, 0, 1)) - alpha) < 1e-15


def test_tensor_builds_delayed_two_photon_state():
    g = 0.9
    state = tensor(math.cos(g) * basis_ket((1, 1)), basis_ket((0, 0))) + tensor(
        math.sin(g) * basis_ket((1, 0)), basis_ket((0, 1))
    )
    assert state.normalized
    assert abs(state.amplitude((1, 1, 0, 0)) - math.cos(g)) < 1e-15
    assert abs(state.amplitude((1, 0, 0, 1)) - math.sin(g)) < 1e-15


def test_tensor_photon_bound():
    with pytest.raises(InvalidOccupationError):
        tensor(basis_ket((5,)), basis_ket((4,)))
    state = tensor(basis_ket((5,)), basis_ket((3,)))
    assert state.amplitude((5, 3)) == 1.0


def test_fidelity_self():
    psi = (basis_ket((2, 0)) + basis_ket((0, 2))).normalize()
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12


def test_fidelity_of_delayed_state_is_cos_squared():
    def hom(g):
        return FockState(4, {(1, 1, 0, 0): math.cos(g), (1, 0, 0, 1): math.sin(g)})

    for g in (0.0, 0.5, 1.0, math.pi / 2):
        assert abs(fidelity(hom(0.0), hom(g)) - math.cos(g) ** 2) < 1e-13


def test_fidelity_requires_normalized_reference():
    with pytest.raises(ValueError):
        fidelity(2.0 * basis_ket((1, 0)), basis_ket((1, 0)))


def test_fidelity_over_ensemble_averages_members():
    r = 1.0 / math.sqrt(2.0)

    def member(phi):
        return FockState(2, {(1, 0): r, (0, 1): r * cmath.exp(1j * phi)})

    ref = member(0.0)
    for g in (0.0, 0.4, 1.1, math.pi / 2):
        ens = StateEnsemble(((0.5, member(g)), (0.5, member(-g))))
        assert abs(fidelity(ref, ens) - (1.0 + math.cos(g)) / 2.0) < 1e-13


def test_ensemble_validates_weights():
    psi = basis_ket((1, 0))
    with pytest.raises(ValueError):
        StateEnsemble(((0.5, psi), (0.4, psi)))
    with pytest.raises(ValueError):
        StateEnsemble(((1.5, psi), (-0.5, psi)))


def test_ensemble_requires_normalized_members():
    with pytest.raises(ValueError):
        StateEnsemble(((1.0, 2.0 * basis_ket((1, 0))),))


def test_state_items_sorted_lexicographically():
    state = basis_ket((0, 2)) + basis_ket((2, 0)) + basis_ket((1, 1))
    assert [occ for occ, _ in state.items()] == [(0, 2), (1, 1), (2, 0)]


def test_normalize_zero_state_errors():
    zero = basis_ket((1, 0)) - basis_ket((1, 0))
    assert len(zero) == 0
    with pytest.raises(ValueError):
        zero.normalize()


def test_amplitude_pruning_drops_tiny_terms():
    state = FockState(2, {(1, 0): 1.0, (0, 1): 1e-16})
    assert len(state) == 1


def test_tensor_refuses_the_photon_bound_with_the_constructor_message():
    # one bound check: the occupation check that every FockState runs
    with pytest.raises(InvalidOccupationError, match="total photon number 9 exceeds the bound 8"):
        tensor(basis_ket((5,)), basis_ket((4,)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FockState(0, {}), ValueError, "mode_count must be positive"),
        (lambda: FockState(2, {(1, 0, 0): 1.0}), DimensionMismatchError, "has 3 modes"),
        (lambda: basis_ket((1, 0)) + 1, TypeError, "unsupported operand"),
        (lambda: basis_ket((1, 0)) + basis_ket((1, 0, 0)), DimensionMismatchError,
         "different mode counts"),
        (lambda: StateEnsemble([]), ValueError, "at least one member"),
        (lambda: StateEnsemble(((0.5, basis_ket((1, 0))), (0.5, basis_ket((1, 0, 0))))),
         DimensionMismatchError, "share mode count"),
    ],
    ids=["no-modes", "occupation-length", "add-a-number", "add-across-modes",
         "empty-ensemble", "mixed-ensemble"],
)
def test_states_and_ensembles_refuse_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_isclose_across_mode_counts_is_false():
    assert not basis_ket((1, 0)).isclose(basis_ket((1, 0, 0)))


def test_repr_lists_at_most_six_terms():
    assert repr(FockState(2, {(1, 0): 0.6, (0, 1): -0.8j})) == (
        "FockState(2, {(0, 1): 0-0.8j, (1, 0): 0.6+0j})"
    )
    seven = FockState(2, {(n, 0): 0.25 for n in range(7)})
    assert repr(seven) == (
        "FockState(2, {(0, 0): 0.25+0j, (1, 0): 0.25+0j, (2, 0): 0.25+0j, (3, 0): 0.25+0j, "
        "(4, 0): 0.25+0j, (5, 0): 0.25+0j, ...})"
    )
