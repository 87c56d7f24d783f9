"""Hand-expansion cross-checks used by selftest and the integration tests.

Production builds the delta-side series as the quotient psi / swap(psi) of
the single factor psi = exp(cB) * Xi_B, solved degree by degree.  The
oracle here is the product form: the whole inverse series of swap(psi),
built on its own and multiplied on the left by psi.  The degree-2
antisymmetrisation psi_2 - swap(psi)_2 is also checked against its printed
closed form.  These identities hold exactly at the raw-generator level.
None of this is public API.
"""

from __future__ import annotations

from fractions import Fraction

from .symring import SymExpr, LOG2
from .freealg import (
    NCSeries,
    nc_graded_part,
    nc_inverse,
    nc_mul,
    nc_scale,
    nc_sub,
    nc_swap,
)
from .delta_side import iint_to_sym, phi_delta, psi_series


def omega(psi: NCSeries, k: int) -> NCSeries:
    """Degree-k antisymmetrisation psi_k - swap(psi)_k of a built psi."""
    return nc_sub(nc_graded_part(psi, k), nc_graded_part(nc_swap(psi), k))


def commutator_x(order: int) -> NCSeries:
    """X = BA - AB as a series."""
    one = SymExpr.one()
    return NCSeries(order, {"BA": one, "AB": -one})


def phi_from_product(order: int) -> NCSeries:
    """psi * inverse(swap(psi)): the delta-side series as an explicit product."""
    psi = psi_series(order)
    return nc_mul(psi, nc_inverse(nc_swap(psi)))


def omega2_closed_form(order: int) -> NCSeries:
    """(c^2 + 2 I[1]) X, the printed degree-2 antisymmetrisation."""
    coeff = SymExpr.gen(LOG2, 2) + iint_to_sym((1,)).scale(Fraction(2))
    return nc_scale(commutator_x(order), coeff)


def check_product_form(order: int = 5) -> bool:
    """The product form must equal the production quotient exactly."""
    return phi_from_product(order) == phi_delta(order)


def check_omega2(order: int = 4) -> bool:
    got = omega(psi_series(order), 2)
    want = omega2_closed_form(order)
    return nc_graded_part(got, 2) == nc_graded_part(want, 2)
