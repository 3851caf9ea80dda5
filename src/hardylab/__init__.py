"""hardylab: a finite-dimensional laboratory for polydisc Hardy-space operator theory.

Everything runs on degree-truncated monomial bases, where operator
statements become dense matrix identities with measurable residuals:
shift compressions to quotient modules, the defect-product and
cross-commutator detectors for Beurling quotients, canonical isometric
co-extensions of commuting contraction pairs, inner-function division
with gap-subspace audits, and the reduced kernel of the bidisc with its
sign-indefinite factor.

Each module's __all__ is the one declaration of its public names; the
package republishes them, and its own __all__ is their concatenation.
"""

__version__ = "0.1.0"

from .grids import *
from .symbols import *
from .operators import *
from .subspaces import *
from .criteria import *
from .dilation import *
from .factorization import *
from .kernels import *
from .corpus import *
from .reports import *
from .scenarios import *

__all__ = ["__version__", *grids.__all__, *symbols.__all__, *operators.__all__,
           *subspaces.__all__, *criteria.__all__, *dilation.__all__, *factorization.__all__,
           *kernels.__all__, *corpus.__all__, *reports.__all__, *scenarios.__all__]
