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
from .freealg import NCSeries, nc_coeff, nc_inverse, nc_mul, nc_swap
from .delta_side import iint_to_sym, phi_delta, psi_series


def phi_from_product(order: int) -> NCSeries:
    """psi * inverse(swap(psi)): the delta-side series as an explicit product."""
    psi = psi_series(order)
    return nc_mul(psi, nc_inverse(nc_swap(psi)))


def check_product_form(order: int = 5) -> bool:
    """The product form must equal the production quotient exactly."""
    return phi_from_product(order) == phi_delta(order)


def check_omega2(order: int = 4) -> bool:
    """psi_2 - swap(psi)_2 is the printed (c^2 + 2 I[1]) X, with X = BA - AB."""
    psi = psi_series(order)
    swapped = nc_swap(psi)
    coeff = SymExpr.gen(LOG2, 2) + iint_to_sym((1,)).scale(Fraction(2))
    want = {"BA": coeff, "AB": -coeff, "AA": SymExpr.zero(), "BB": SymExpr.zero()}
    # below order 2 both sides truncate to nothing
    return order < 2 or all(
        nc_coeff(psi, w) - nc_coeff(swapped, w) == e for w, e in want.items()
    )
