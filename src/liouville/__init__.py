"""Exact-arithmetic cohomology engine for the derived conformal algebra
of flat space: Bott's algorithm, Weyl dimensions, the vertical Young
multiplication, Cech cohomology of punctured affine space, and the
conformal Killing algebra so(n+2).
"""

__version__ = "0.1.0"
