"""Tate-Shafarevich groups of multinorm-one tori over global fields.

Two independent computation routes for the obstruction groups attached to a
product of cyclic p-power extensions: the definition, read as congruence
subgroups cut out place by place, and a closed-form assembly from patching degrees and degrees of freedom.  The CLI
cross-checks them.
"""

from .abelian import (
    BudgetExceeded,
    Character,
    PGroup,
    Subgroup,
    divisor_valuations,
    intersect,
)
from .fields import (
    FieldConfig,
    IntersectionNotBase,
    NonSeparatingAmbient,
    NonSurjectiveCharacter,
    NormalizedConfig,
    ShaInputError,
    TooFewFields,
    validate_and_normalize,
)
from .places import LocalData, Place, locally_cyclic
from .oracle import (
    Classification,
    ShaReport,
    aprime,
    classify,
    compute_G_and_Gomega,
    delta,
    i_n,
    quotient_by_D,
)
from .structure import (
    StructureResult,
    assemble,
    criterion_trivial,
    shortcut_bicyclic_subfields,
    shortcut_linearly_disjoint,
)
from .kummer import KummerSpec, build_kummer, is_fourth_power_local
