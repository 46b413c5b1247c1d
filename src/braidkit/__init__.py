"""Braid-group and fibred-knot computations.

The toolkit builds two parametrized families of braids whose closures are
unknots, certifies the unknotting by replayable Markov-move certificates,
and verifies the algebra of the fibred knots obtained by lifting the braids
to branched double covers: Alexander invariants along independent pipelines,
Garside normal form identities, homological monodromy, Thurston-Veech
pseudo-Anosov certificates, and two-bridge cross-checks.
"""

from .braid import (
    BraidWord,
    FamilySpec,
    FamilyWords,
    FamilyError,
    Permutation,
    build_family,
    closure_components,
    enhanced_phi,
    enhanced_pi,
    exponent_sum,
    family_braid,
    format_braid_text,
    free_reduce,
    original_phi,
    original_pi,
    parse_braid_text,
    underlying_permutation,
)
from .destab import UnknotCertificate, apply_move, destabilize_greedy, replay_certificate
from .garside import (
    NormalForm,
    delta_word,
    full_twist,
    normal_form,
    periodic_identity_check,
    words_equal,
)
from .laurent import charpoly, det_laurent
from .invariants import (
    SignatureMarginError,
    alexander_from_burau,
    alexander_from_seifert,
    brick_seifert,
    knot_determinant,
    reduced_burau,
    signature_function,
)

__version__ = "0.1.0"

from .coverlift import (
    BranchedCoverData,
    branched_cover_euler,
    charpoly_int,
    fibred_alexander,
    growth_sequence,
    is_cyclic,
    lift_homological,
    seifert_from_monodromy,
    transvection,
)
from .pacert import (
    Classification,
    MulticurvePair,
    chain_pair,
    classify,
    complement_euler,
    mu,
    parse_twist_word,
)
from .twobridge import (
    TwoBridgeFraction,
    cf_to_fraction,
    crosscheck_w0,
    twobridge_alexander,
)
from .checks import check_names, run_check
from .report import build_report, canonical_json, validate_report
from .sweep import SweepConfig, parse_config, run_sweep
