"""Golden digest of a matrix of small audits.

Every instance below is audited under the honest protocol and each
mutation, unconditioned and conditioned on non-abort, with the abort rule
on and off.  Each audit contributes its record as JSON text without
``wall_time_s`` (its only timing), or the text of the
``ConfigurationError`` it raises (conditioning when every session
aborts).  A change that is meant to keep every audit number must leave the
digests unchanged; ``python tests/test_audit_matrix.py`` prints the current
ones.

``INSTANCES``' (2, 0) rows abort every session, so ``LIVE_SETS`` adds
instances whose two-position published sets are live, pinned by a digest
of their own.  ``WIDE_SETS`` pins larger live instances with published
sets of two positions, at n = 6 and on the three-file chain, by a third
digest.
"""

import hashlib
import itertools
import json
from fractions import Fraction

from adder_spir import oracle
from adder_spir.model import ConfigurationError, ProtocolParams
from adder_spir.protocol import MUTATIONS

HALF = Fraction(1, 2)
# (L1, L2, n, ell1, ell2, alpha, t)
INSTANCES = [
    *((2, 2, n, *ell, HALF, 0.4) for n in range(1, 5) for ell in ((1, 0), (1, 1), (0, 0), (0, 1), (2, 0))),
    (2, 2, 3, 1, 0, HALF, 0.49),
    (3, 2, 2, 1, 0, HALF, 0.4),
    (2, 3, 2, 0, 1, Fraction(0), 0.4),
    (2, 3, 3, 1, 1, HALF, 0.4),
]
DIGEST = "76688f037aa6cfd974173690aa8863865cd0599178e4ad094ce8b67cf78e2d9c"
# Instances with sessions that go on and publish sets of two positions.
LIVE_SETS = [
    (2, 2, 4, 2, 0, Fraction(1), 0.4),
    (2, 2, 4, 0, 2, Fraction(0), 0.4),
    (2, 2, 5, 2, 0, Fraction(1), 0.4),
]
LIVE_SETS_DIGEST = "4156be466babe4a56fe3871a63d1aa47743e4590298ab7477f4b3d9c73a6a3a0"
# (mutation, condition_nonabort, abort_disabled) of each audit of an instance.
VARIANTS = list(itertools.product((None, *MUTATIONS), (False, True), (False, True)))
# Larger instances with live sets of two positions: every variant at 2x2;
# at 3x2, unconditioned with the abort rule on, the honest audit and the
# two mutations that leak to different parties (about 0.8 s each).
WIDE_SETS = [
    *itertools.product(
        [
            (2, 2, 6, 2, 0, Fraction(1), 0.4),
            (2, 2, 5, 2, 1, Fraction(2, 3), 0.4),
            (2, 2, 6, 2, 1, Fraction(2, 3), 0.4),
            (2, 2, 6, 1, 2, Fraction(1, 3), 0.4),
        ],
        VARIANTS,
    ),
    *(((3, 2, 4, 2, 0, Fraction(1), 0.4), (mutation, False, False)) for mutation in (None, "reuse-pad", "leak-selection")),
]
WIDE_SETS_DIGEST = "101ebcb2db787670b9efb2dcaf0bd3bf1c60617fb24e553ec7154f6303491675"


def matrix_digest(instances=INSTANCES) -> str:
    """The sha256 of every audit's record or error text, one line each, of
    each instance under every variant."""
    return cases_digest(itertools.product(instances, VARIANTS))


def cases_digest(cases) -> str:
    """The sha256 of the record or error text of each (instance, variant) case, one line each."""
    digest = hashlib.sha256()
    for (L1, L2, n, ell1, ell2, alpha, t), (mutation, condition, no_abort) in cases:
        params = ProtocolParams(n=n, t_exponent=t, alpha=alpha, L1=L1, L2=L2, ell1=ell1, ell2=ell2)
        try:
            record = oracle.audit(params, abort_disabled=no_abort, condition_nonabort=condition, mutation=mutation)
        except ConfigurationError as error:
            line = f"ConfigurationError: {error}"
        else:
            record = record.to_record()
            record.pop("wall_time_s")
            line = json.dumps(record)
        digest.update((line + "\n").encode())
    return digest.hexdigest()


def test_audit_matrix_digest():
    assert matrix_digest() == DIGEST


def test_live_sets_digest():
    assert matrix_digest(LIVE_SETS) == LIVE_SETS_DIGEST


def test_wide_sets_digest():
    assert cases_digest(WIDE_SETS) == WIDE_SETS_DIGEST


if __name__ == "__main__":
    print(f"audit matrix: sha256 {matrix_digest()}")
    print(f"live sets: sha256 {matrix_digest(LIVE_SETS)}")
    print(f"wide sets: sha256 {cases_digest(WIDE_SETS)}")
