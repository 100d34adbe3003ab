"""Higher-commutator toolkit: a finite-algebra engine for term-condition
commutators and a bounded verifier for the tagged-tuple simple algebra."""

from .elements import (
    AGen,
    BGen,
    CConst,
    DConst,
    Element,
    Params,
    Tagged,
    bounded_subuniverse,
    eval_f,
    eval_u,
    eval_u_pqr,
    level,
)
from .errors import BudgetExceededError, CommlabError
from .finengine import Congruence, FiniteAlgebra
from .terms import Term, UnaryPolynomial, eval_poly, eval_term

__version__ = "0.1.0"
