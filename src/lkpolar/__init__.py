"""Two-route computation of Lipschitz-Killing curvature measures.

The package evaluates curvature measures of stratified sets (simplicial
complexes and a catalog of smooth shapes) both through stratified Morse
theory and through volumes of polar images under generic projections, and
verifies that the two routes agree, globally and locally at cone germs.
"""

from .geomkit import (
    AffineFlat,
    Estimate,
    LinearSubspace,
    RandomSource,
    ball_volume,
    beta_coeff,
    polar_length_constant,
    sample_affine_flats_hitting_ball,
    sample_grassmannian,
    sample_unit_sphere,
    sphere_volume,
)
from .plstrata import (
    StratifiedComplex,
    euler_characteristic,
    load_plstrat,
    normal_link,
    normal_morse_index,
    pl_morse_indices,
    save_plstrat,
)
from .smoothshape import SmoothShape, frames, second_form
from .lkmeasure import (
    Shape,
    exchange_lambda0,
    kinematic_check,
    lambda_density,
    lk_measure,
    shape_from_name,
)
from .polar import (
    alpha_index,
    check_genericity,
    polar_image_integral,
    polar_length,
    polar_sample,
    polar_variety,
)
from .germ import (
    ConeGerm,
    density,
    germ_from_name,
    local_lambda,
    local_polar_length,
    sigma_invariant,
    verify_local_identities,
)

__all__ = [
    "AffineFlat",
    "ConeGerm",
    "Estimate",
    "LinearSubspace",
    "RandomSource",
    "Shape",
    "SmoothShape",
    "StratifiedComplex",
    "alpha_index",
    "ball_volume",
    "beta_coeff",
    "check_genericity",
    "density",
    "euler_characteristic",
    "exchange_lambda0",
    "frames",
    "germ_from_name",
    "kinematic_check",
    "lambda_density",
    "lk_measure",
    "load_plstrat",
    "local_lambda",
    "local_polar_length",
    "normal_link",
    "normal_morse_index",
    "pl_morse_indices",
    "polar_image_integral",
    "polar_length",
    "polar_length_constant",
    "polar_sample",
    "polar_variety",
    "sample_affine_flats_hitting_ball",
    "sample_grassmannian",
    "sample_unit_sphere",
    "save_plstrat",
    "second_form",
    "shape_from_name",
    "sigma_invariant",
    "sphere_volume",
    "verify_local_identities",
]

__version__ = "0.1.0"
