"""Brute-force references for the exact leakage oracle, the index sets and
the residual-entropy surface.

The enumerators replay the full protocol once for every channel input,
partition, file, mask and selection assignment and key a dict by the
resulting value tuples.  ``joint_pattern_settle`` reads the ranks of
replayed skeletons once per joint pattern of every output it reads, as
the oracle's ``_settle`` once did.  ``listed_counts`` counts an
enumeration's skeletons and the lcm of its partition combinations by
listing every sequence, and ``replayed_skeletons`` replays every
(sequence, selection) through ``execute_multifile`` on a plan of its own,
sharing nothing between replays.  ``tuple_classify_indices`` and
``tuple_sample_partition`` build index sets as tuples of Python ints, the
way the package did before its index sets became int64 arrays, and decode
the client's inputs at the decodable shares one position at a time.
``brute_conditional_entropy`` computes H(X1 X2 | Y) from the explicit
four-atom joint, apart from the closed form of ``capacity``.  All of
them are slow, and kept only so that tests can compare the package
against them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from adder_spir.bits import AffineBits, BitString
from adder_spir.channel import classify_indices, transmit
from adder_spir.infotheory import JointDistribution
from adder_spir.model import CapacityShortfall, FileStore, ProtocolParams, Selection
from adder_spir.multifile import execute_multifile, plan_multifile
from adder_spir.oracle import (
    _AFFINE, _FREE, _INTERNED, _PAIRS, _SKELETON, VARIABLES, _part_key, _public_of, _rank, _solved,
)
from adder_spir.protocol import (
    IndexPartition, abort_check, execute_session, open_round, partition_choices, shares_fit,
)

IndexSet = tuple[int, ...]


def brute_conditional_entropy(p1: float, p2: float) -> float:
    """H(X1 X2 | Y) from the explicit four-atom joint: H(X1 X2) - H(Y)."""
    atoms = {
        (0, 0): (1 - p1) * (1 - p2),
        (0, 1): (1 - p1) * p2,
        (1, 0): p1 * (1 - p2),
        (1, 1): p1 * p2,
    }
    h_inputs = -math.fsum(p * math.log2(p) for p in atoms.values() if p > 0)
    py: dict[int, float] = {}
    for (x1, x2), p in atoms.items():
        py[x1 + x2] = py.get(x1 + x2, 0.0) + p
    h_sum = -math.fsum(p * math.log2(p) for p in py.values() if p > 0)
    return h_inputs - h_sum


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
    y,
    good: IndexSet,
    bad: IndexSet,
    alpha: float,
    ell1: int,
    ell2: int,
    stream: np.random.Generator,
) -> IndexPartition:
    """Draw the shares uniformly at random with the client's local
    randomness, and decode the client's inputs at g1 and g2 as y_p // 2."""
    m = _tuple_check_shares(good, bad, alpha, ell1, ell2)
    good = tuple(sorted(good))
    bad = tuple(sorted(bad))
    pg = stream.permutation(len(good))
    pb = stream.permutation(len(bad))
    g1 = tuple(sorted(good[i] for i in pg[:ell1]))
    g2 = tuple(sorted(good[i] for i in pg[ell1 : ell1 + ell2]))
    b1 = tuple(sorted(bad[i] for i in pb[:ell1]))
    b2 = tuple(sorted(bad[i] for i in pb[ell1 : ell1 + ell2]))
    decoded = (BitString.from_bits(int(y[p - 1]) // 2 for p in share) for share in (g1, g2))
    return IndexPartition(good, bad, g1, g2, b1, b2, m, *decoded)


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


def _preset_partitioner(part):
    """Partitioner that replays one enumerated choice (None means shortfall)."""

    def partitioner(*_args):
        if part is None:
            raise CapacityShortfall("infeasible block replayed by the reference")
        return part

    return partitioner


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
                opening = open_round(params, x1, x2, _preset_partitioner(part), abort_disabled=abort_disabled)
                for f11, f12 in itertools.product(fs1, repeat=2):
                    files1 = FileStore(1, (f11, f12))
                    for f21, f22 in itertools.product(fs2, repeat=2):
                        files2 = FileStore(2, (f21, f22))
                        for z1, z2 in itertools.product((1, 2), repeat=2):
                            t = execute_session(
                                params, files1, files2, Selection(z1, z2), opening, mutation=mutation
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
            # The live rounds, then the aborting one if any (its partitioner
            # is reached only on a capacity shortfall).
            openings = [
                open_round(base_params, *x_rounds[k], _preset_partitioner(p), abort_disabled=abort_disabled)
                for k, p in zip(range(K), (*parts_combo, None))
            ]
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
                                    plan = plan_multifile(
                                        params,
                                        files1,
                                        files2,
                                        Selection(z1, z2),
                                        masks1,
                                        masks2,
                                        mutation=mutation,
                                    )
                                    mt = execute_multifile(plan, openings)
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


def information(view: list, secret: list) -> int:
    """I(M u; N u) in bits for uniform u: rank M + rank N - rank [M; N].
    ``view`` and ``secret`` hold one int per free bit, M's and N's column
    there; N's columns are below 64 bits."""
    return _rank(view) + _rank(secret) - _rank([m << 64 | n for m, n in zip(view, secret)])


def joint_pattern_settle(enumeration, replayed, live_only: bool) -> tuple[int, int, dict]:
    """``oracle._settle`` as it ranked every output once per distinct joint
    pattern of the msgs1, msgs2, unsel and miss words: six ranks per
    pattern, whatever the outputs share with other patterns."""
    lay = enumeration.layout
    skeletons, affine, _table = replayed
    B = lay.free_bits
    counted = [not (live_only and direct[2]) for direct, *_rest in skeletons]
    words = affine[:, [_AFFINE.index(v) for v in ("msgs1", "msgs2", "unsel", "miss")]]
    data, size = words.tobytes(), words[0].nbytes
    ranks: dict = {}
    nonabort = fail = leaked = 0
    full = True
    for s, weight in itertools.compress(enumerate(enumeration.weights(skeletons)), counted):
        (_z1, _z2, aborted), _values, (free, _executed, _combos), _size = skeletons[s]
        mass = weight << (B + free)
        pattern = data[s * size : (s + 1) * size]
        if pattern not in ranks:
            msgs1, msgs2, unsel, miss = words[s].tolist()
            M = [a << 64 | b for a, b in zip(msgs1[1:], msgs2[1:])]
            ranks[pattern] = information(M, unsel[1:]), _rank(unsel[1:]), _solved(miss[1:], miss[0])
        bits, rank_n, rank = ranks[pattern]
        leaked += mass * bits
        full = full and rank_n == lay.widths["unsel"]
        if not aborted:
            nonabort += mass
            fail += mass - (mass >> rank) if rank is not None else mass
    settled = {}
    if full:
        settled["servers_vs_client"] = leaked / (nonabort if live_only else enumeration.denominator) if leaked else 0.0
    fields = dict(zip(_FREE, lay.split(np.left_shift(1, np.arange(B)))))
    read = affine[np.array(counted, dtype=bool), :, 1 : B + 1]
    for name, (view, (secret, *_rest)) in _PAIRS.items():
        outputs = [_AFFINE.index(v) for v in view if v in _AFFINE]
        if secret in fields and not read[:, outputs][..., fields[secret] != 0].any():
            settled[name] = 0.0
    return nonabort, fail, settled


def listed_counts(enumeration) -> tuple[int, int]:
    """The skeletons of ``enumeration`` (one per sequence and selection) and
    the lcm of its sequences' partition combinations, from a walk over
    every sequence of its kept openings."""
    combos = [combos for _rounds, combos, _size in enumeration.sequences()]
    return len(combos) * enumeration.layout.L1 * enumeration.layout.L2, math.lcm(*combos)


def replayed_skeletons(enumeration) -> tuple[list, np.ndarray, np.ndarray, dict]:
    """Every skeleton of ``enumeration`` as ``_Enumeration.replay_all``
    returns it (its row, its affine words, its row of the skeleton table)
    and the values of ``_INTERNED`` in id order, with every (sequence,
    selection) replayed through ``execute_multifile`` on fresh chains and a
    plan of its own: no answer, run of rounds or aborted round is shared
    between replays, and every public value is read from the replay's
    transcripts.  ``enumeration`` supplies the sequences, their symbolic
    openings and their partitions."""
    lay = enumeration.layout
    files1, files2, masks1, masks2 = lay.symbols(lay.n * lay.K)
    zeros = bytes(8 * (lay.free_bits + lay.n * lay.K + 1))

    def words(values) -> bytes:
        return AffineBits.join(values).words() if values else zeros

    rows, outputs, table = [], [], []
    interned = {name: {} for name in _INTERNED}
    for rounds, combos, size in enumeration.sequences():
        opened, _columns, free = enumeration.openings(rounds)
        for z1 in range(1, lay.L1 + 1):
            for z2 in range(1, lay.L2 + 1):
                plan = plan_multifile(enumeration.params, files1, files2, Selection(z1, z2), masks1, masks2,
                                      mutation=enumeration.mutation)
                mt = execute_multifile(plan, opened)
                sets, msgs1, msgs2, leaks = zip(*map(_public_of, mt.transcripts))
                values = (
                    tuple(t.y.tobytes() for t in mt.transcripts), sets, leaks,
                    tuple(_part_key(verdict.partition) for t, (_pair, verdict, *_counts) in zip(mt.transcripts, rounds)
                          if not t.aborted),
                )
                miss = zeros if mt.aborted else (AffineBits.join(mt.recovered) ^ AffineBits.join(plan.requested)).words()
                row = ((z1, z2, int(mt.aborted)), values, (free, len(mt.transcripts), combos), size)
                rows.append(row)
                outputs += [
                    words([o.x1 for o in opened]), words([o.x2 for o in opened]),
                    words([m for sent in msgs1 if sent for m in sent]), words([m for sent in msgs2 if sent for m in sent]),
                    words(files1.files[: z1 - 1] + files1.files[z1:] + files2.files[: z2 - 1] + files2.files[z2:]),
                    miss,
                ]
                ids = {name: interned[name].setdefault(v, len(interned[name])) for name, v in zip(_INTERNED, values)}
                columns = dict(zip(("z1", "z2", "abort"), row[0]), **ids, **dict(zip(("free", "executed", "combos"), row[2])))
                table.append([columns[name] for name in _SKELETON])
    affine = np.frombuffer(b"".join(outputs), dtype="<i8").reshape(len(rows), len(_AFFINE), -1)
    return rows, affine, np.array(table, dtype=np.int64), {name: list(ids) for name, ids in interned.items()}
