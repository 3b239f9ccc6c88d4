"""Exact-arithmetic toolkit for generalized Reed-Solomon code families.

Construction of GRS-derived codes over GF(p^s), MDS and GRS-ness
decisions, and recovery of the defining evaluation points and column
multipliers from any generator matrix.
"""

from .gf import Field, field_new, field_from_order, INF, is_finite, proj_inv
from .linalg import (Matrix, identity, matmul, echelonize, rref, rank, det,
                     minor, right_kernel)
from .codes import (LinearCode, GrsSpec, FormatError, grs_generator,
                    grs_dual_multipliers, dual, puncture, shorten,
                    min_distance, is_mds, code_eq,
                    read_matrix_file, write_matrix_file,
                    read_spec_file, write_spec_file)
from .families import (MgrsParams, EmgrsParams, TgrsParams, RothLempelParams,
                       TWIST_ZERO, TWIST_TOP,
                       mgrs_generator, emgrs_generator, mgrs_is_mds,
                       emgrs_is_mds, c_code_generator, d_code_generator,
                       tgrs_generator, tgrs_dual_parity,
                       roth_lempel_generator, col_twisted_generator)
from .constructions import (ConstructionRecord, Table1Report, star_modified,
                            odd_k3, plus_modified, char2_k4, ngrs_q2_3,
                            tgrs_punctured, table1)
from .grsid import (GrsVerdict, RecoveryError, CountingField, trans_to_grs,
                    recover, is_grs, cauchy_test, brute_force_recover,
                    bench_recover, random_grs_spec)

__version__ = "0.1.0"
