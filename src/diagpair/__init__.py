"""Verification laboratory for pairs of diagonal cubic/quadratic equations.

Exact moment counts, circle-method local and archimedean factors, integer
solution search, and comparison of exact counts against the predicted
asymptotic growth.
"""

__version__ = "0.1.0"
