"""Brute-force references for the exact leakage oracle and the index sets.

The enumerators replay the full protocol once for every channel input,
partition, file, mask and selection assignment and key a dict by the
resulting value tuples.  ``tuple_classify_indices`` and
``tuple_sample_partition`` build index sets as tuples of Python ints, the
way the package did before its index sets became int64 arrays.  All of
them are slow, and kept only so that tests can compare the package
against them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from adder_spir.bits import BitString
from adder_spir.channel import classify_indices, transmit
from adder_spir.infotheory import JointDistribution
from adder_spir.model import CapacityShortfall, FileStore, ProtocolParams, Selection
from adder_spir.multifile import execute_multifile
from adder_spir.oracle import VARIABLES, _part_key, _preset_partitioner, _public_of
from adder_spir.protocol import IndexPartition, abort_check, execute_session, partition_choices, shares_fit

IndexSet = tuple[int, ...]


def tuple_classify_indices(y) -> tuple[IndexSet, IndexSet]:
    """Split positions (1-based) into decodable and hidden sets.

    An output of 0 or 2 pins both inputs (0 means both sent 0, 2 means both
    sent 1); an output of 1 leaves the input pair ambiguous.
    """
    arr = np.asarray(y, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > 2):
        raise ValueError("channel outputs must lie in {0, 1, 2}")
    hidden = arr == 1
    good = tuple(int(i) + 1 for i in np.nonzero(~hidden)[0])
    bad = tuple(int(i) + 1 for i in np.nonzero(hidden)[0])
    return good, bad


def _tuple_check_shares(good: IndexSet, bad: IndexSet, alpha: float, ell1: int, ell2: int) -> int:
    if set(good) & set(bad):
        raise ValueError("good and bad index sets must be disjoint")
    m = min(len(good), len(bad))
    if not shares_fit(m, alpha, ell1, ell2):
        raise CapacityShortfall(
            f"requested lengths ({ell1}, {ell2}) exceed shares of M={m} at alpha={alpha}"
        )
    return m


def tuple_sample_partition(
    good: IndexSet,
    bad: IndexSet,
    alpha: float,
    ell1: int,
    ell2: int,
    stream: np.random.Generator,
) -> IndexPartition:
    """Draw the shares uniformly at random with the client's local randomness."""
    m = _tuple_check_shares(good, bad, alpha, ell1, ell2)
    good = tuple(sorted(good))
    bad = tuple(sorted(bad))
    pg = stream.permutation(len(good))
    pb = stream.permutation(len(bad))
    return IndexPartition(
        good=good,
        bad=bad,
        g1=tuple(sorted(good[i] for i in pg[:ell1])),
        g2=tuple(sorted(good[i] for i in pg[ell1 : ell1 + ell2])),
        b1=tuple(sorted(bad[i] for i in pb[:ell1])),
        b2=tuple(sorted(bad[i] for i in pb[ell1 : ell1 + ell2])),
        m=m,
    )


def reference_enumeration(params, mode="two_file", *, abort_disabled=False, mutation=None, exact=False):
    """Exact joint distribution by brute-force replay (no state budget)."""
    params.validate()
    if mode == "two_file":
        return _enumerate_two_file(params, abort_disabled, mutation, exact)
    return _enumerate_multifile(params, abort_disabled, mutation, exact)


def _bitstrings(length: int, cache: dict[int, list[BitString]]) -> list[BitString]:
    if length not in cache:
        cache[length] = [BitString.from_int(v, length) for v in range(2**length)]
    return cache[length]


def _round_choices(x1: BitString, x2: BitString, params: ProtocolParams, abort_disabled: bool):
    """Abort verdict and the client's equally likely partitions for one block.

    Returns (y_bytes, abort_reason_or_None, choices_or_None).
    """
    y = transmit(x1, x2).y
    good, bad = classify_indices(y)
    if not abort_disabled and not abort_check(len(good), params.n, params.t_exponent):
        return y.tobytes(), "size-deviation", None
    try:
        choices = partition_choices(y, params.alpha, params.ell1, params.ell2)
    except CapacityShortfall:
        return y.tobytes(), "capacity-shortfall", None
    return y.tobytes(), None, choices


def _estimate_two_file(params: ProtocolParams) -> int:
    bits = 2 * params.n + params.L1 * params.ell1 + params.L2 * params.ell2
    return (2**bits) * params.L1 * params.L2


def _estimate_multifile(params: ProtocolParams) -> int:
    L1, L2 = params.L1, params.L2
    K = (L1 - 1) * (L2 - 1)
    len1 = params.ell1 * (L2 - 1)
    len2 = params.ell2 * (L1 - 1)
    bits = (
        2 * params.n * K
        + L1 * len1
        + L2 * len2
        + (L1 - 2) * (L2 - 1) * params.ell1
        + (L2 - 2) * (L1 - 1) * params.ell2
    )
    return (2**bits) * L1 * L2


def _enumerate_two_file(params, abort_disabled, mutation, exact) -> JointDistribution:
    n, ell1, ell2 = params.n, params.ell1, params.ell2
    cache: dict[int, list[BitString]] = {}
    xs = _bitstrings(n, cache)
    fs1 = _bitstrings(ell1, cache)
    fs2 = _bitstrings(ell2, cache)
    total = _estimate_two_file(params)
    base = Fraction(1, total) if exact else 1.0 / total

    table: dict[tuple, float | Fraction] = {}
    for x1 in xs:
        for x2 in xs:
            y_bytes, reason, choices = _round_choices(x1, x2, params, abort_disabled)
            if choices is None:
                parts = [None]
                weight = base
            else:
                parts = choices
                weight = base / len(choices)
            for part in parts:
                for f11, f12 in itertools.product(fs1, repeat=2):
                    files1 = FileStore(1, (f11, f12))
                    for f21, f22 in itertools.product(fs2, repeat=2):
                        files2 = FileStore(2, (f21, f22))
                        for z1, z2 in itertools.product((1, 2), repeat=2):
                            t = execute_session(
                                params,
                                files1,
                                files2,
                                Selection(z1, z2),
                                x1,
                                x2,
                                abort_disabled=abort_disabled,
                                mutation=mutation,
                                partitioner=_preset_partitioner(part),
                            )
                            sets_v, msgs1_v, msgs2_v, leak_v = _public_of(t)
                            key = (
                                z1,
                                z2,
                                (f11, f12),
                                (f21, f22),
                                (),
                                (),
                                x1,
                                x2,
                                y_bytes,
                                sets_v,
                                msgs1_v,
                                msgs2_v,
                                leak_v,
                                t.aborted,
                                t.recovery_ok,
                                ((f11, f12)[2 - z1], (f21, f22)[2 - z2]),
                                None if part is None else _part_key(part),
                            )
                            table[key] = table.get(key, 0) + weight
    return JointDistribution(VARIABLES, table)


def _enumerate_multifile(params, abort_disabled, mutation, exact) -> JointDistribution:
    L1, L2 = params.L1, params.L2
    K = (L1 - 1) * (L2 - 1)
    p1, p2 = params.ell1, params.ell2
    len1, len2 = p1 * (L2 - 1), p2 * (L1 - 1)
    n_masks1 = (L1 - 2) * (L2 - 1)
    n_masks2 = (L2 - 2) * (L1 - 1)
    cache: dict[int, list[BitString]] = {}
    xs = _bitstrings(params.n, cache)
    total = _estimate_multifile(params)
    weight_base = Fraction(1, total) if exact else 1.0 / total

    def mask_groups(flat: tuple[BitString, ...], per_part: int, parts: int):
        return tuple(flat[i * per_part : (i + 1) * per_part] for i in range(parts))

    base_params = ProtocolParams(
        n=params.n, t_exponent=params.t_exponent, alpha=params.alpha, ell1=p1, ell2=p2
    )

    table: dict[tuple, float | Fraction] = {}
    for x_flat in itertools.product(xs, repeat=2 * K):
        x_rounds = [(x_flat[2 * k], x_flat[2 * k + 1]) for k in range(K)]
        # Per-round verdicts; the first aborting round truncates the session,
        # so the client draws partitions only for the rounds before it.
        verdicts = [
            _round_choices(x1, x2, base_params, abort_disabled) for x1, x2 in x_rounds
        ]
        first_abort = next(
            (k for k, (_y, reason, _c) in enumerate(verdicts) if reason is not None), K
        )
        live = verdicts[:first_abort]
        combos = itertools.product(*(choices for (_y, _r, choices) in live))
        n_combos = 1
        for _y, _r, choices in live:
            n_combos *= len(choices)
        weight = weight_base / n_combos
        for parts_combo in combos:
            partitioners = [_preset_partitioner(p) for p in parts_combo] + [
                _preset_partitioner(None)
            ] * (K - first_abort)
            u0 = tuple(_part_key(p) for p in parts_combo)
            for files1_t in itertools.product(_bitstrings(len1, cache), repeat=L1):
                files1 = FileStore(1, files1_t)
                for files2_t in itertools.product(_bitstrings(len2, cache), repeat=L2):
                    files2 = FileStore(2, files2_t)
                    for masks1_t in itertools.product(
                        _bitstrings(p1, cache), repeat=n_masks1
                    ):
                        masks1 = mask_groups(masks1_t, L1 - 2, L2 - 1)
                        for masks2_t in itertools.product(
                            _bitstrings(p2, cache), repeat=n_masks2
                        ):
                            masks2 = mask_groups(masks2_t, L2 - 2, L1 - 1)
                            for z1 in range(1, L1 + 1):
                                for z2 in range(1, L2 + 1):
                                    mt = execute_multifile(
                                        params,
                                        files1,
                                        files2,
                                        Selection(z1, z2),
                                        x_rounds,
                                        masks1,
                                        masks2,
                                        abort_disabled=abort_disabled,
                                        mutation=mutation,
                                        partitioners=partitioners,
                                    )
                                    executed = mt.transcripts
                                    pub = [_public_of(t) for t in executed]
                                    key = (
                                        z1,
                                        z2,
                                        files1_t,
                                        files2_t,
                                        masks1_t,
                                        masks2_t,
                                        tuple(
                                            x_rounds[i][0] for i in range(len(executed))
                                        ),
                                        tuple(
                                            x_rounds[i][1] for i in range(len(executed))
                                        ),
                                        tuple(t.y.tobytes() for t in executed),
                                        tuple(p[0] for p in pub),
                                        tuple(p[1] for p in pub),
                                        tuple(p[2] for p in pub),
                                        tuple(p[3] for p in pub),
                                        mt.aborted,
                                        None
                                        if mt.aborted
                                        else (
                                            mt.recovered[0] == files1.file(z1)
                                            and mt.recovered[1] == files2.file(z2)
                                        ),
                                        (
                                            tuple(
                                                f
                                                for l, f in enumerate(files1_t, 1)
                                                if l != z1
                                            ),
                                            tuple(
                                                f
                                                for l, f in enumerate(files2_t, 1)
                                                if l != z2
                                            ),
                                        ),
                                        u0,
                                    )
                                    table[key] = table.get(key, 0) + weight
    return JointDistribution(VARIABLES, table)
