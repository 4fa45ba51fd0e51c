"""Categorical missing-data imputation with unidimensional item response models.

Fit binary / graded / nominal item models to a mixed categorical dataset by
marginal maximum likelihood (EM over a fixed quadrature grid with a standard
normal latent trait), score each case's trait by its posterior mean, and fill
every missing cell with its most probable category.  Companion tools inject
controlled missingness (MCAR / MAR), test the MCAR hypothesis, and score
imputation accuracy on the held-out cells.
"""

from . import (data, errors, estimation, impute, metrics, missingness,
               models, simulate)
from .data import *
from .errors import *
from .estimation import *
from .impute import *
from .metrics import *
from .missingness import *
from .models import *
from .simulate import *

__all__ = [name for module in (data, errors, estimation, impute, metrics,
                               missingness, models, simulate)
           for name in module.__all__]

__version__ = "0.1.0"
