"""Exact sparse Fock-space algebra for small photon numbers.

States live on a fixed number of bosonic modes and are stored as sparse
maps from occupation tuples to complex amplitudes.  Basis kets follow the
normalized convention |n> = (a^dag)^n / sqrt(n!) |0>, so the occupation
tuples label an orthonormal basis and inner products reduce to conjugated
dot products over the sparse maps.

All arithmetic is plain double-precision complex; the total photon number
is capped at the fixed PHOTON_BOUND (8) so every expansion stays exact and
finite.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence, Union

PHOTON_BOUND = 8
NORMALIZATION_TOL = 1e-12
PRUNE_TOL = 1e-15  # amplitudes of at most this magnitude are dropped


class InvalidOccupationError(ValueError):
    """Occupation vector with a negative entry, or photon bound exceeded."""


class DimensionMismatchError(ValueError):
    """Operands disagree on the number of modes."""


def _checked_occupation(occ: Sequence[int]) -> tuple[int, ...]:
    counts = []
    for n in occ:
        k = int(n)
        if k != n or k < 0:
            raise InvalidOccupationError(
                f"occupation entries must be non-negative integers, got {tuple(occ)!r}"
            )
        counts.append(k)
    total = sum(counts)
    if total > PHOTON_BOUND:
        raise InvalidOccupationError(
            f"total photon number {total} exceeds the bound {PHOTON_BOUND}"
        )
    return tuple(counts)


class FockState:
    """Pure state as a sparse map from occupation tuples to amplitudes.

    Instances are immutable; all operations return new states.  Amplitudes
    with magnitude at or below PRUNE_TOL are dropped on construction.
    """

    __slots__ = ("mode_count", "_amps")

    def __init__(self, mode_count: int, amplitudes: Union[Mapping, Iterable]) -> None:
        if mode_count < 1:
            raise ValueError("mode_count must be positive")
        entries = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        accum: dict[tuple[int, ...], complex] = {}
        for occ, amp in entries:
            key = _checked_occupation(occ)
            if len(key) != mode_count:
                raise DimensionMismatchError(
                    f"occupation {key} has {len(key)} modes, state has {mode_count}"
                )
            accum[key] = accum.get(key, 0j) + complex(amp)
        self.mode_count = mode_count
        self._amps = {k: v for k, v in accum.items() if abs(v) > PRUNE_TOL}

    @classmethod
    def _raw(cls, mode_count: int, amps: dict) -> "FockState":
        # internal fast path: keys are already validated occupation tuples
        state = object.__new__(cls)
        state.mode_count = mode_count
        state._amps = {k: v for k, v in amps.items() if abs(v) > PRUNE_TOL}
        return state

    def items(self) -> list[tuple[tuple[int, ...], complex]]:
        """Amplitude entries in lexicographic occupation order."""
        return sorted(self._amps.items())

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self._amps.get(tuple(occ), 0j)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    @property
    def normalized(self) -> bool:
        return abs(self.norm_squared() - 1.0) < NORMALIZATION_TOL

    def normalize(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self * (1.0 / n)

    def photon_numbers(self) -> set[int]:
        """Set of total photon numbers present in the superposition."""
        return {sum(occ) for occ in self._amps}

    def isclose(self, other: "FockState", tol: float = 1e-12) -> bool:
        """True when every amplitude agrees with `other` within `tol`."""
        if self.mode_count != other.mode_count:
            return False
        keys = set(self._amps) | set(other._amps)
        return all(
            abs(self._amps.get(k, 0j) - other._amps.get(k, 0j)) <= tol for k in keys
        )

    def __len__(self) -> int:
        return len(self._amps)

    def __add__(self, other: "FockState") -> "FockState":
        if not isinstance(other, FockState):
            return NotImplemented
        if self.mode_count != other.mode_count:
            raise DimensionMismatchError("cannot add states with different mode counts")
        merged = dict(self._amps)
        for k, v in other._amps.items():
            merged[k] = merged.get(k, 0j) + v
        return FockState._raw(self.mode_count, merged)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockState":
        z = complex(scalar)
        return FockState._raw(self.mode_count, {k: z * v for k, v in self._amps.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {amp:.6g}" for occ, amp in self.items()[:6])
        suffix = ", ..." if len(self._amps) > 6 else ""
        return f"FockState({self.mode_count}, {{{terms}{suffix}}})"


class StateEnsemble:
    """Statistical mixture of pure states with weights summing to one."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[tuple[float, FockState]]) -> None:
        entries = tuple((float(w), s) for w, s in members)
        if not entries:
            raise ValueError("ensemble needs at least one member")
        total = 0.0
        mode_count = entries[0][1].mode_count
        for weight, state in entries:
            if not 0.0 < weight <= 1.0:
                raise ValueError(f"weight {weight} outside (0, 1]")
            if state.mode_count != mode_count:
                raise DimensionMismatchError("ensemble members must share mode count")
            if not state.normalized:
                raise ValueError("ensemble members must be normalized")
            total += weight
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        self.members = entries

    def __len__(self) -> int:
        return len(self.members)


def basis_ket(occupations: Sequence[int]) -> FockState:
    """Normalized basis ket |n_1, ..., n_M> with unit amplitude."""
    return FockState(len(tuple(occupations)), {tuple(occupations): 1.0})


def inner_product(bra: FockState, ket: FockState) -> complex:
    """<bra|ket>, conjugate-linear in the bra argument."""
    if bra.mode_count != ket.mode_count:
        raise DimensionMismatchError(
            f"bra has {bra.mode_count} modes, ket has {ket.mode_count}"
        )
    ket_amps = ket._amps
    return sum(
        (amp.conjugate() * ket_amps[occ] for occ, amp in bra._amps.items() if occ in ket_amps),
        0j,
    )


def tensor(left: FockState, right: FockState) -> FockState:
    """Tensor product; mode counts add and amplitudes multiply pairwise.  The
    constructor checks every joined occupation against the photon bound."""
    return FockState(
        left.mode_count + right.mode_count,
        {occ_l + occ_r: amp_l * amp_r
         for occ_l, amp_l in left._amps.items() for occ_r, amp_r in right._amps.items()},
    )


def fidelity(reference: FockState, state: Union[FockState, StateEnsemble]) -> float:
    """Projection probability of `state` onto the pure `reference`.

    Pure states give |<ref|psi>|^2; ensembles give the weighted average of
    the member fidelities.
    """
    if not reference.normalized:
        raise ValueError("reference state must be normalized")
    if isinstance(state, StateEnsemble):
        return sum(w * abs(inner_product(reference, s)) ** 2 for w, s in state.members)
    return abs(inner_product(reference, state)) ** 2
