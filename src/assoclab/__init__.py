"""Two independent expansions of the same noncommutative series, compared
coefficient by coefficient to produce exact relations between multiple zeta
values and polylogarithms at one half, with arbitrary-precision certification.
"""

__version__ = "0.1.0"
