"""Exact symbolic workbench for the higher-rank Askey-Wilson and
q-Bannai-Ito families of Casimir-type generators in tensor powers of
U_q(sl2) and osp_q(1|2)."""

from .qcoeff import LaurentPoly, RatQ
from .pbw import AlgElem, EdgeElem

__all__ = ["LaurentPoly", "RatQ", "AlgElem", "EdgeElem"]
__version__ = "0.1.0"
