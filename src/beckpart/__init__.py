"""Exact combinatorics of Beck-type partition identities.

The package enumerates the partition families involved, computes the excess
statistics, implements every constructive bijection between them (with full
intermediate traces for the flat-to-regular map), and reproduces the same
quantities analytically through exact truncated q-series.
"""

from .partitions import (
    Composition,
    DecoratedPartition,
    MARK,
    OVERLINE,
    Partition,
    RectanglePair,
    modular_diagram,
    modular_diagram_rows,
    parse_partition,
    rectangle,
)
from .families import (
    Family,
    PairSet,
    clear_caches,
    count,
    enumerate_family,
    is_member,
)
from .stats import (
    StatReport,
    beck_b,
    beck_b_prime,
    excess_Ert,
    excess_Ert_flat,
    stat_report,
    total_repeated_values,
    total_residue_parts,
)
from .bijections import (
    BijectionError,
    ConstructionError,
    XiTrace,
    phi_forward,
    phi_inverse,
    psi1_forward,
    psi1_inverse,
    psi2_forward,
    psi2_inverse,
    psi_d_forward,
    psi_d_inverse,
    psi_o_forward,
    psi_o_inverse,
    psi_t_forward,
    psi_t_inverse,
    xi_forward,
    xi_inverse,
    zeta_forward,
    zeta_inverse,
)
from .qseries import TruncatedSeries, gf, lambert_sum

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
