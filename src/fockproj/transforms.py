"""Linear-optical mode transforms and their exact action on Fock states.

A transform is an M x M unitary acting on the creation operators.  The
column convention is fixed once here: column i lists the image of the
i-th creation operator,

    a_i^dag  ->  sum_j U[j, i] a_j^dag.

Lifting to Fock space writes each basis ket as a creation-operator
monomial, substitutes the columns, and expands the product multinomially.
That is exact for any photon number within the state's bound and keeps
the simulator free of permanent formulas at desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import PHOTON_BOUND, DimensionMismatchError, FockState

UNITARITY_TOL = 1e-12
_FACTORIALS = [math.factorial(n) for n in range(PHOTON_BOUND + 1)]


class ModeUnitary:
    """Unitary matrix on mode creation operators (column convention); `columns[i]` lists the
    nonzero U[j, i] of column i as (j, U[j, i]), read by `lift`."""

    __slots__ = ("matrix", "columns")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        # U^dag U, and the product below, as broadcast sums: the optics constants are built
        # at import, where a complex matmul would raise every process's peak RSS for BLAS
        gram = (m.conj()[:, :, None] * m[:, None, :]).sum(axis=0)
        deviation = np.abs(gram - np.eye(m.shape[0]))
        if deviation.max() >= UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary (max |U^dag U - I| entry = {deviation.max():.3e})"
            )
        m.setflags(write=False)
        self.matrix = m
        self.columns = tuple(tuple((j, u_ji) for j, u_ji in enumerate(column) if u_ji != 0)
                             for column in m.T.tolist())

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        if self.dimension != other.dimension:
            raise DimensionMismatchError("cannot compose unitaries of different size")
        return ModeUnitary((self.matrix[:, :, None] * other.matrix).sum(axis=1))

    def __repr__(self) -> str:
        return f"ModeUnitary(dimension={self.dimension})"


def identity(total_modes: int) -> ModeUnitary:
    return ModeUnitary(np.eye(total_modes))


def beamsplitter_5050(mode_a: int, mode_b: int, total_modes: int) -> ModeUnitary:
    """Balanced beam splitter on two modes, identity elsewhere.

    Sign convention: a^dag -> (a^dag + b^dag)/sqrt(2) and
    b^dag -> (a^dag - b^dag)/sqrt(2), so two photons entering one on each
    side bunch as (|2,0> - |0,2>)/sqrt(2).
    """
    if mode_a == mode_b:
        raise ValueError("beam splitter requires two distinct modes")
    for idx in (mode_a, mode_b):
        if not 0 <= idx < total_modes:
            raise ValueError(f"mode index {idx} out of range for {total_modes} modes")
    r = 1.0 / math.sqrt(2.0)
    m = np.eye(total_modes, dtype=complex)
    m[mode_a, mode_a] = m[mode_a, mode_b] = m[mode_b, mode_a] = r
    m[mode_b, mode_b] = -r
    return ModeUnitary(m)


def polarization_rotation(angle: float) -> ModeUnitary:
    """Real rotation of the two modes (H, V) by `angle` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return ModeUnitary([[c, -s], [s, c]])


def lift(u: ModeUnitary, state: FockState) -> FockState:
    """Apply a mode unitary to a state by creation-operator expansion.

    Norm-preserving and linear; photon number per term is conserved, so
    the result stays within the bound of the input state.
    """
    if u.dimension != state.mode_count:
        raise DimensionMismatchError(
            f"unitary acts on {u.dimension} modes, state has {state.mode_count}"
        )
    modes = state.mode_count
    vacuum = (0,) * modes
    columns, factorial = u.columns, _FACTORIALS.__getitem__
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state._amps.items():
        # coefficient of the creation monomial for this ket
        poly = {vacuum: amp / math.sqrt(math.prod(map(factorial, occ)))}
        for mode, count in enumerate(occ):
            for _ in range(count):
                grown: dict[tuple[int, ...], complex] = {}
                for expo, coeff in poly.items():
                    for j, u_ji in columns[mode]:
                        key = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * u_ji
                poly = grown
        for expo, coeff in poly.items():
            weight = coeff * math.sqrt(math.prod(map(factorial, expo)))
            out[expo] = out.get(expo, 0j) + weight
    return FockState._raw(modes, out)
