"""Diophantine tuples with a shift k: exact verification, Pell-equation
reductions, extension search, and modular non-extendability certificates.

The public names are those of each module's ``__all__``, re-exported here.
"""

from . import arith, extension, pell, tuples
from .arith import *
from .extension import *
from .pell import *
from .tuples import *

__version__ = "0.1.0"

__all__ = []
__all__ += arith.__all__
__all__ += extension.__all__
__all__ += pell.__all__
__all__ += tuples.__all__
