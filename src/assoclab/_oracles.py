"""Hand-expansion cross-checks used by selftest and the integration tests.

The product form of the delta-side series can be rebuilt degree by degree
from the single factor psi = exp(cB) * Xi_B and its letter swap: with
omega_k the degree-k antisymmetrisation psi_k - swap(psi)_k, the series
satisfies the recursion

    Phi_k = omega_k - sum over 0 < j < k of Phi_j * swap(psi)_{k-j},

because Phi * swap(psi) = psi as series and one can solve triangularly.
These identities hold exactly at the raw-generator level and make an
independent oracle for the assembled product.  None of this is public API.
"""

from __future__ import annotations

from fractions import Fraction

from .symring import SymExpr, LOG2
from .freealg import (
    NCSeries,
    nc_graded_part,
    nc_mul,
    nc_scale,
    nc_sub,
    nc_swap,
    nc_unit,
)
from .delta_side import iint_to_sym, phi_delta, psi_series


def omega(psi: NCSeries, k: int) -> NCSeries:
    """Degree-k antisymmetrisation psi_k - swap(psi)_k of a built psi."""
    return nc_sub(nc_graded_part(psi, k), nc_graded_part(nc_swap(psi), k))


def commutator_x(order: int) -> NCSeries:
    """X = BA - AB as a series."""
    one = SymExpr.one()
    return NCSeries(order, {"BA": one, "AB": -one})


def phi_from_recursion(order: int) -> NCSeries:
    """Rebuild the delta-side series from psi alone, degree by degree."""
    psi = psi_series(order)
    psi_swap = nc_swap(psi)
    parts: dict[int, NCSeries] = {0: nc_unit(order)}
    for k in range(1, order + 1):
        acc = omega(psi, k)
        for j in range(1, k):
            prod = nc_mul(parts[j], nc_graded_part(psi_swap, k - j))
            acc = nc_sub(acc, nc_graded_part(prod, k))
        parts[k] = acc
    coeffs: dict[str, SymExpr] = {}
    for part in parts.values():
        for w, e in part.coeffs.items():
            coeffs[w] = coeffs.get(w, SymExpr.zero()) + e
    return NCSeries(order, coeffs)


def omega2_closed_form(order: int) -> NCSeries:
    """(c^2 + 2 I[1]) X, the printed degree-2 antisymmetrisation."""
    coeff = SymExpr.gen(LOG2, 2) + iint_to_sym((1,)).scale(Fraction(2))
    return nc_scale(commutator_x(order), coeff)


def check_psi_recursion(order: int = 5) -> bool:
    """The triangular rebuild must equal the assembled product exactly."""
    return phi_from_recursion(order) == phi_delta(order)


def check_omega2(order: int = 4) -> bool:
    got = omega(psi_series(order), 2)
    want = omega2_closed_form(order)
    return nc_graded_part(got, 2) == nc_graded_part(want, 2)
