"""Exact primitive idempotent decompositions of SL(2) Frobenius-kernel
hyperalgebras in characteristic p, with projective-cover identification."""

from .algebra import (
    AlgebraCtx,
    HyperElem,
    coeffs_to_weightfn,
    degree_decompose,
    element_from_json,
    element_to_json,
    embed,
    format_element,
    fr,
    fr_prime,
    gen_h_binom,
    gen_x,
    gen_y,
    one,
    pbw_elem,
    shift_weightfn,
    weight_coords,
    weightfn_to_coeffs,
    x_power,
    y_power,
    zero,
)
from .idempotents import (
    LabelError,
    PairAJ,
    ProductExpansion,
    TupleLabel,
    all_pairs,
    classify_case,
    enumerate_labels,
    format_label,
    level1_idempotent,
    make_pair,
    min_xy_power,
    min_yx_power,
    parse_label,
    recursion_shift,
    tuple_idempotent,
    upper_block_projector,
    weight_projector,
    xy_expansion,
    yx_expansion,
    z_operator,
)
from .modp import binom_mod_p, digits_base_p, factorial_mod_p, inv_mod_p, is_prime
from .pims import (
    IdealBasis,
    PimLabel,
    left_ideal_dim,
    left_ideal_span,
    pim_label_closed_form,
    pim_rows,
    predicted_top_x,
    predicted_weight,
    top_x_exponent,
    weight_of_idempotent,
    weyl_action,
)

__version__ = "0.1.0"
