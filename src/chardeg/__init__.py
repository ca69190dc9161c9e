"""Exact computational toolkit for character degree graphs of SL2(q).

Everything here is integer arithmetic over small finite fields: group
enumeration, module decomposition, orbit/stabilizer classification, degree
set formulas and prime graph analytics.  Floating point appears only as an
exact carrier of integer products below 2^53 (``kernels.mul_mod``).
"""

from chardeg.fields import Field, FieldError, field_make
from chardeg.groups import GroupTable, Subgroup, sl2_group
from chardeg.modules import GModule, InconclusiveError

__all__ = [
    "Field",
    "FieldError",
    "field_make",
    "GroupTable",
    "Subgroup",
    "sl2_group",
    "GModule",
    "InconclusiveError",
]

__version__ = "0.1.0"
