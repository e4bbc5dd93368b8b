"""fareyflow: continued fractions and parity Lagrange numbers, Farey charge
arithmetic, Hermitian-Einstein numerics on flat tori, and Coulomb gauge
fixing on the unit square.
"""

from . import contfrac, coulomb, farey, fiber, stability, surd

__version__ = "0.1.0"
__all__ = ["contfrac", "coulomb", "farey", "fiber", "stability", "surd", "__version__"]
