"""Computational hyperbolic geometry for discrete groups of plane
isometries: orbit enumeration, critical-exponent estimation, growth-lemma
checks for nonnegative sequences, and finite-truncation boundary measures
with conformality, equivariance, and shadow audits."""

__version__ = "0.1.0"

from .hyperbolic import (
    BoundaryInterval,
    BoundaryPoint,
    INFINITY,
    Isometry,
    ORIGIN,
    Point,
    boundary_angle,
    boundary_at_angle,
    boundary_from_angle,
    busemann,
    direction_angle_from,
    direction_from,
    distance,
    shadow,
)
from .groups import (
    GroupSpec,
    OrbitCensus,
    PingPongCertificate,
    conjugate,
    cyclic_spec,
    enumerate_orbit,
    modular_lattice_spec,
    nested_subgroup_spec,
    ping_pong_certificate,
    schottky_spec,
    spec_from_json,
    spec_to_json,
    verify_ping_pong,
)
from .counting import (
    CountingReport,
    ExponentEstimate,
    SeparationCertificate,
    annular_count,
    boundedness_audit,
    estimate_exponent,
    make_report,
    orbital_count,
    poincare_partial,
    separation_certificate,
)
from .sequences import (
    SequenceProbe,
    critical_exponent,
    divergence_argument_check,
    fait_check,
    fekete_check,
    lemma1_check,
)
from .patterson import (
    AtomicMeasure,
    ModifierH,
    boundary_histogram,
    conformal_ratio_audit,
    equivariance_audit,
    orbital_measure,
    render_ppm,
    shadow_lemma_audit,
    shadow_mass,
)

__all__ = [name for name in dir() if not name.startswith("_")]
