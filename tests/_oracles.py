"""Independent cross-checks and random-case generators for the test suite.

The transition-amplitude oracle here goes through matrix permanents of
row/column-repeated submatrices, a completely different route than the
package's creation-operator expansion, so the two can validate each other.
The analytic stationary points are solved by hand from the closed forms: a
test-side copy of the `stationary` entries of the scenario table, which
`analysis.sweep` reports from.  The oracle matrix is A[o, k] = <o|U b_k> by
permanents, against `projectors.scenario_matrix`.  The four-product curve, over
the engine's A, is the reference for the bytes of `projectors.scenario_curve`,
which skips products by zero.  The generator-based `lift` and `inner_product`
and the per-row CSV assembly are the references for the bytes of the package's
loop-based versions.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from fockproj import FockState, ModeUnitary, cli, fock, models, projectors, transforms


def permanent(matrix) -> complex:
    """Permanent by direct permutation sum (fine for n <= 4)."""
    n = len(matrix)
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        product = 1.0 + 0j
        for i, j in enumerate(perm):
            product *= matrix[i][j]
        total += product
    return total


def transition_amplitude(u: ModeUnitary, occ_in, occ_out) -> complex:
    """<occ_out| U |occ_in> via the permanent of the repeated submatrix."""
    cols = [i for i, n in enumerate(occ_in) for _ in range(n)]
    rows = [j for j, n in enumerate(occ_out) for _ in range(n)]
    if len(cols) != len(rows):
        return 0j
    sub = [[complex(u.matrix[r, c]) for c in cols] for r in rows]
    norm = math.sqrt(
        math.prod(math.factorial(n) for n in occ_in)
        * math.prod(math.factorial(n) for n in occ_out)
    )
    return permanent(sub) / norm


def compositions(total: int, parts: int):
    """All occupation tuples of `parts` modes holding `total` photons."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def lift_oracle(u: ModeUnitary, state: FockState) -> FockState:
    """Full transformed state assembled from permanent amplitudes."""
    modes = state.mode_count
    out: dict[tuple, complex] = {}
    for occ_in, amp in state.items():
        for occ_out in compositions(sum(occ_in), modes):
            contrib = amp * transition_amplitude(u, occ_in, occ_out)
            if contrib != 0j:
                out[occ_out] = out.get(occ_out, 0j) + contrib
    return FockState(modes, out)


def random_unitary(rng: random.Random, dim: int) -> ModeUnitary:
    """Haar-ish unitary from random two-mode rotations and phase layers."""
    m = np.eye(dim, dtype=complex)
    for _ in range(2 * dim):
        a, b = rng.sample(range(dim), 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        chi = rng.uniform(0.0, 2.0 * math.pi)
        block = np.eye(dim, dtype=complex)
        c, s = math.cos(angle), math.sin(angle)
        phase = complex(math.cos(chi), math.sin(chi))
        block[a, a] = c
        block[a, b] = -s * phase.conjugate()
        block[b, a] = s * phase
        block[b, b] = c
        m = block @ m
    phases = np.diag([
        complex(math.cos(t), math.sin(t))
        for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim))
    ])
    return ModeUnitary(phases @ m)


def random_state(rng: random.Random, modes: int, max_photons: int = 4) -> FockState:
    """Random normalized state with a handful of sparse terms."""
    amps: dict[tuple, complex] = {}
    for _ in range(rng.randint(1, 5)):
        total = rng.randint(0, max_photons)
        occ = rng.choice(list(compositions(total, modes)))
        amps[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    state = FockState(modes, amps)
    if state.norm() == 0.0:
        return random_state(rng, modes, max_photons)
    return state.normalize()


def random_fixed_number_state(rng: random.Random, modes: int, photons: int) -> FockState:
    """Random normalized state whose terms all hold `photons` photons."""
    patterns = list(compositions(photons, modes))
    chosen = rng.sample(patterns, rng.randint(1, min(4, len(patterns))))
    amps = {
        occ: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for occ in chosen
    }
    state = FockState(modes, amps)
    if state.norm() == 0.0:
        return random_fixed_number_state(rng, modes, photons)
    return state.normalize()


def analytic_stationary_points(scenario: str, p: dict) -> list:
    """Angles near [0, pi/2] where the slope of a single-deliberate, single-loss or
    classical closed form vanishes, solved by hand from each closed form.

    deliberate: p' ~ -(cos 2beta cos g + cos theta sin 2beta sin g);
    loss: p is quadratic in cos g with its vertex at -cos theta tan beta;
    classical: I ~ q^2 with q = cos(g - theta1) cos(g - theta2).
    """
    if scenario == "single-deliberate":
        base = [math.atan2(-math.cos(2 * p["beta"]), math.cos(p["theta"]) * math.sin(2 * p["beta"]))]
        period = math.pi
    elif scenario == "single-loss":
        vertex = -math.cos(p["theta"]) * math.tan(p["beta"])
        return [math.acos(vertex)] if -1.0 <= vertex <= 1.0 else []
    else:
        t1, t2 = p["theta1"], p["theta2"]
        base = [(t1 + t2) / 2, (t1 + t2) / 2 + math.pi / 2, t1 + math.pi / 2, t2 + math.pi / 2]
        period = math.pi
    shifts = [x - period * math.floor(x / period) for x in base]  # into [0, pi)
    return sorted(x + k * period for x in shifts for k in (-1, 0, 1))


def oracle_matrix(scenario, params: dict) -> np.ndarray:
    """A[o, k] = <o|U b_k> of a quantum scenario from permanent transition amplitudes, one row
    per outcome ket and no overlap row, with no call into the package's `lift` or
    `inner_product`; the cascade goes through its split itself rather than its pulled-back ket."""
    spec = models.SCENARIOS[scenario]
    basis, transform = spec.basis, spec.transform
    outcomes = [fock.basis_ket(o) for o in spec.events] or spec.outcomes(params)
    if scenario is models.ScenarioId.HOFMANN_CASCADE:
        basis = [b + (0, 0) for b in basis]
        transform, outcomes = models.CASCADE_SPLIT, [models.CASCADE_COINCIDENCE]
    transform = transform or transforms.identity(len(basis[0]))
    return np.array([[sum(amp.conjugate() * transition_amplitude(transform, b, occ)
                          for occ, amp in o.items()) for b in basis] for o in outcomes])


def four_product_curve(scenario, params: dict, gammas: np.ndarray) -> tuple:
    """`projectors.scenario_curve` without its range guard, and with every `A c` formed from
    all four real products, re += ar*cr - ai*ci and im += ar*ci + ai*cr, whatever planes of
    `A` and `c` are zero throughout."""
    spec, a = models.SCENARIOS[scenario], projectors.scenario_matrix(scenario, params)
    total = overlaps = 0.0
    for weight, coefficients in zip(spec.weights, spec.coefficients(gammas)):
        c = np.array(coefficients)
        c[np.abs(c) <= fock.PRUNE_TOL] = 0.0
        (ar, ai), (cr, ci), re, im = (a.real, a.imag), (c.real, c.imag), 0.0, 0.0
        for k in range(len(c)):
            re += ar[:, k, None] * cr[k] - ai[:, k, None] * ci[k]
            im += ar[:, k, None] * ci[k] + ai[:, k, None] * cr[k]
        squares = re**2 + im**2
        total, overlaps = total + weight * squares[:-1].sum(axis=0), overlaps + weight * squares[-1]
    return spec.gain(params) * total, overlaps


def lift_by_generators(u: ModeUnitary, state: FockState) -> FockState:
    """`transforms.lift` with its columns rebuilt from `u.matrix` on every call and its
    factorial products taken over generators."""
    modes, factorials = state.mode_count, transforms._FACTORIALS
    vacuum = (0,) * modes
    columns = [[(j, u_ji) for j, u_ji in enumerate(column) if u_ji != 0]
               for column in u.matrix.T.tolist()]
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state._amps.items():
        poly = {vacuum: amp / math.sqrt(math.prod(factorials[n] for n in occ))}
        for mode, count in enumerate(occ):
            for _ in range(count):
                grown: dict[tuple[int, ...], complex] = {}
                for expo, coeff in poly.items():
                    for j, u_ji in columns[mode]:
                        key = expo[:j] + (expo[j] + 1,) + expo[j + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * u_ji
                poly = grown
        for expo, coeff in poly.items():
            weight = coeff * math.sqrt(math.prod(factorials[n] for n in expo))
            out[expo] = out.get(expo, 0j) + weight
    return FockState._raw(modes, out)


def inner_product_by_sum(bra: FockState, ket: FockState) -> complex:
    """`fock.inner_product` as `sum` over a generator, started from 0j."""
    ket_amps = ket._amps
    return sum(
        (amp.conjugate() * ket_amps[occ] for occ, amp in bra._amps.items() if occ in ket_amps),
        0j,
    )


def csv_by_rows(result) -> str:
    """`cli.render_csv` with every cell formatted on its own, one `","` join per row and one
    `"\\n"` join of the lines; the footer values come from `cli._table`."""
    _, footer = cli._table(result)
    raw, overlap = np.asarray(result.probabilities), result.indistinguishability
    columns = (result.gammas, raw if overlap is None else raw.clip(0.0, 1.0), result.closed_forms)
    cells = [[cli._CELL % v for v in np.asarray(c, float).tolist()] for c in columns]
    cells.append([""] * len(raw) if overlap is None
                 else [cli._CELL % v for v in np.asarray(overlap, float).tolist()])
    lines = ["gamma,probability,closed_form,indistinguishability"]
    lines += map(",".join, zip(*cells))
    footer["extrema"] = ";".join(
        f"{e.kind.value}:{cli._CELL % e.gamma}:{cli._CELL % e.value}" for e in result.extrema
    ) or "none"
    for key, value in sorted(footer.items()):
        lines.append(f"# {key},{value if isinstance(value, str) else cli._CELL % value}")
    return "\n".join(lines) + "\n"
