"""Exact-arithmetic toolkit for left-symmetric algebras, symplectic and
flat Lie algebras, their phase-space doubles, and para-Kahler /
hyper-para-Kahler structures, with self-certifying constructions."""

from .algebra import (Algebra, Endo, associator, check, curvature,
                      invariance_check, is_derivation, nijenhuis,
                      product_subspaces)
from .doubling import (build_complex_product, build_hyper, build_symp_double,
                       build_theta_double, compat_curvature, delta_op,
                       is_compatible, lts_from_o, lts_from_yb, myb_residual,
                       o_op, oeq_check, pencil, pencil_identity, tu_product,
                       yb)
from .catalog import (CanonicalId, CatalogEntry, CompatVerdict,
                      CybeDoubleData, DerivationPhaseData, FAMILIES,
                      FlatDoubleData, QuadraticData, build_quadratic_symplectic,
                      canonical, catalog_algebras, catalog_families,
                      catalog_load, check_type_two_constraints,
                      classify_compatible_dim2, cybe_double, derivation_phase,
                      flat_double, graded_tensor_algebra, killing_form,
                      normalize_assoc_symp, normalize_dim2_slsa,
                      rand_symplectic, rand_type_one_params,
                      rand_type_two_params, type_one_template_params,
                      type_two_family_params)
from .exact import Mat, Subspace, format_rational, parse_rational
from .forms import (Bilinear, a_product, is_flat, is_invariant_form,
                    is_invariant_iso, is_two_cocycle, levi_civita)
from .phase import (build_phase, cocycle_check, is_lie_extendible, rho,
                    verify_hyper_para_kahler, verify_para_kahler)
from .report import Certificate, InternalInconsistency, Report
from .smatrix import (Tensor2, rr_bracket, classify_r, delta_r, coadjoint_double,
                      dual_product_from_r, twisted_structures)
from .triple import LieTriple

__version__ = "0.1.0"
