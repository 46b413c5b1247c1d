"""Braid-group and fibred-knot computations.

The toolkit builds two parametrized families of braids whose closures are
unknots, certifies the unknotting by replayable Markov-move certificates,
and verifies the algebra of the fibred knots obtained by lifting the braids
to branched double covers: Alexander invariants along independent pipelines,
Garside normal form identities, homological monodromy, Thurston-Veech
pseudo-Anosov certificates, and two-bridge cross-checks.
"""

__version__ = "0.1.0"
