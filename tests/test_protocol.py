import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adder_spir.bits import BitString, sample_uniform
from adder_spir.channel import string_to_ternary
from adder_spir.model import (
    CapacityShortfall,
    ConfigurationError,
    FileStore,
    PartyRandomness,
    ProtocolParams,
    Selection,
    party_stream,
    sample_filestore,
)
from adder_spir.multifile import run_multifile
from adder_spir.protocol import (
    MUTATIONS,
    abort_check,
    build_selection_sets,
    client_partitioner,
    client_recover,
    execute_session,
    partition,
    partition_choices,
    run_session_adaptive,
    sample_partition,
    shares_fit,
)


# ---------------------------------------------------------------------------
# abort check


def test_abort_check_examples():
    assert abort_check(50, 100, 0.25)
    assert not abort_check(90, 100, 0.25)


def test_abort_check_boundary():
    # n = 10000, t = 0.25 gives a threshold of exactly 0.1.
    assert abort_check(6000, 10_000, 0.25)
    assert not abort_check(6001, 10_000, 0.25)


def test_abort_check_validation():
    with pytest.raises(ValueError):
        abort_check(-1, 10, 0.25)
    with pytest.raises(ValueError):
        abort_check(11, 10, 0.25)
    with pytest.raises(ValueError):
        abort_check(5, 10, 0.6)


# ---------------------------------------------------------------------------
# partitioning


def test_partition_worked_example():
    part = partition(string_to_ternary("102012011211"), Fraction(1, 3), 2, 4)
    assert part.m == 6
    assert tuple(part.good) == (2, 3, 4, 6, 7, 10)
    assert tuple(part.bad) == (1, 5, 8, 9, 11, 12)
    assert tuple(part.g1) == (2, 3)
    assert tuple(part.g2) == (4, 6, 7, 10)
    assert tuple(part.b1) == (1, 5)
    assert tuple(part.b2) == (8, 9, 11, 12)


def test_partition_third_of_six_is_two():
    # alpha = 1/3 of M = 6 is exactly 2: positions 1-6 decodable, 7-12 hidden.
    part = partition(string_to_ternary("000000111111"), Fraction(1, 3), 2, 4)
    assert len(part.g1) == 2 and len(part.g2) == 4


def test_partition_capacity_shortfall():
    with pytest.raises(CapacityShortfall):
        partition(string_to_ternary("0011"), 0.5, 2, 0)


def test_shares_fit_does_not_overdraw_alpha_m():
    # alpha * m = 0.9999999995 < 1: there is no room for a one-bit share.
    assert not shares_fit(1, 0.9999999995, 1, 0)


def test_shares_fit_reads_a_float_as_the_decimal_it_prints():
    # Fraction 1/3 of M = 6 is exactly 2; float 1/3 prints as 0.3333333333333333.
    assert shares_fit(6, Fraction(1, 3), 2, 4)
    assert not shares_fit(6, 1 / 3, 2, 4)


def test_shares_fit_counts_numpy_sizes_without_overflow():
    # 3333333333333333 * m overflows int64; the floor is 2**40 - 1, just under 2**40.
    m = np.int64(3 * 2**40)
    assert shares_fit(m, 1 / 3, 2**40 - 1, 0)
    assert not shares_fit(m, 1 / 3, 2**40, 0)


def _largest_share(m, alpha, first: bool) -> int:
    """The largest length ``shares_fit`` admits for one server, the other at 0."""
    lengths = range(m + 2)
    fits = (lambda k: shares_fit(m, alpha, k, 0)) if first else (lambda k: shares_fit(m, alpha, 0, k))
    return bisect.bisect_left(lengths, True, key=lambda k: not fits(k)) - 1


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.one_of(st.fractions(0, 1), st.floats(0, 1)),
    m=st.integers(0, 10**6),
)
@example(alpha=0.9999999995, m=1)
@example(alpha=Fraction(19_999_999_999, 20_000_000_000), m=1)
def test_shares_never_exceed_alpha_m(alpha, m):
    # A float stands for the decimal it prints as.
    a = alpha if isinstance(alpha, Fraction) else Fraction(repr(alpha))
    s1, s2 = _largest_share(m, alpha, True), _largest_share(m, alpha, False)
    assert s1 <= a * m and s2 <= (1 - a) * m
    assert s1 + s2 <= m


def test_sample_partition_shape():
    good = tuple(range(1, 9))
    bad = tuple(range(9, 17))
    y = string_to_ternary("0" * 8 + "1" * 8)
    stream = party_stream(3, (3, 1))
    for _ in range(20):
        part = sample_partition(y, 0.5, 3, 4, stream)
        assert len(part.g1) == 3 and len(part.g2) == 4
        assert len(part.b1) == 3 and len(part.b2) == 4
        assert set(part.g1).isdisjoint(part.g2)
        assert set(part.b1).isdisjoint(part.b2)
        assert set(np.concatenate([part.g1, part.g2])) <= set(good)
        assert set(np.concatenate([part.b1, part.b2])) <= set(bad)


def test_partition_choices_count():
    # Positions 1-3 decodable, 4-6 hidden.
    choices = partition_choices(string_to_ternary("000111"), 0.5, 1, 1)
    # C(3,1)*C(2,1) per side.
    assert len(choices) == 6 * 6
    assert len(set((tuple(p.g1), tuple(p.g2), tuple(p.b1), tuple(p.b2)) for p in choices)) == 36


def test_client_partitioner_reproducible():
    y = string_to_ternary("000000111111")
    a = client_partitioner(99, 1)(y, 0.5, 2, 2)
    b = client_partitioner(99, 1)(y, 0.5, 2, 2)
    fields = ("good", "bad", "g1", "g2", "b1", "b2")
    assert [getattr(a, f).tolist() for f in fields] == [getattr(b, f).tolist() for f in fields]
    assert a.m == b.m


# ---------------------------------------------------------------------------
# selection sets


def test_build_selection_sets_orientation():
    part = partition(string_to_ternary("102012011211"), Fraction(1, 3), 2, 4)
    sets = build_selection_sets(1, 2, part)
    # z = 1 puts the decodable share in slot 1; z = 2 puts it in slot 2.
    assert sets.for_server(1) == (part.g1, part.b1)
    assert sets.for_server(2) == (part.b2, part.g2)


def test_client_recover_rejects_hidden_positions():
    y = np.array([1, 0, 2], dtype=np.uint8)
    with pytest.raises(RuntimeError):
        client_recover(1, y, (1, 2), BitString.zeros(2))


# ---------------------------------------------------------------------------
# sessions


def _session_inputs(seed: int, n: int):
    x1 = sample_uniform(n, party_stream(seed, (1, 1)))
    x2 = sample_uniform(n, party_stream(seed + 1, (1, 1)))
    return x1, x2


@pytest.mark.parametrize("z1", [1, 2])
@pytest.mark.parametrize("z2", [1, 2])
def test_execute_session_recovers_exactly(z1, z2):
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=0.5, ell1=5, ell2=5)
    files1 = sample_filestore(1, 2, 5, 11)
    files2 = sample_filestore(2, 2, 5, 12)
    x1, x2 = _session_inputs(21, 64)
    t = execute_session(params, files1, files2, Selection(z1, z2), x1, x2)
    assert not t.aborted
    assert t.recovery_ok
    assert t.recovered[0] == files1.file(z1)
    assert t.recovered[1] == files2.file(z2)


def test_two_file_run_deterministic():
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=0.5, ell1=4, ell2=4)
    files1 = sample_filestore(1, 2, 4, 5)
    files2 = sample_filestore(2, 2, 4, 6)
    rnd = PartyRandomness(1, 2, 3)
    a = run_multifile(params, files1, files2, Selection(1, 2), rnd)
    b = run_multifile(params, files1, files2, Selection(1, 2), rnd)
    assert a.to_record() == b.to_record()


def test_size_deviation_aborts_session():
    params = ProtocolParams(n=8, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
    files1 = sample_filestore(1, 2, 1, 5)
    files2 = sample_filestore(2, 2, 1, 6)
    # All-zero inputs: every position is decodable.
    t = execute_session(
        params, files1, files2, Selection(1, 1), BitString.zeros(8), BitString.zeros(8)
    )
    assert t.aborted and t.abort_reason == "size-deviation"


def test_capacity_shortfall_aborts_session():
    params = ProtocolParams(n=4, t_exponent=0.4, alpha=0.5, ell1=2, ell2=2)
    files1 = sample_filestore(1, 2, 2, 5)
    files2 = sample_filestore(2, 2, 2, 6)
    # All-zero inputs: no hidden positions at all, so M = 0.
    t = execute_session(
        params, files1, files2, Selection(1, 1), BitString.zeros(4), BitString.zeros(4),
        abort_disabled=True,
    )
    assert t.aborted and t.abort_reason == "capacity-shortfall"


def test_execute_session_validation():
    params = ProtocolParams(n=8, t_exponent=0.4, alpha=0.5, ell1=1, ell2=1)
    files1 = sample_filestore(1, 2, 1, 5)
    files2 = sample_filestore(2, 2, 1, 6)
    x1, x2 = _session_inputs(3, 8)
    with pytest.raises(ConfigurationError):
        execute_session(params, files1, files2, Selection(1, 1), x1, x2, mutation="bogus")
    with pytest.raises(ConfigurationError):
        execute_session(params, files1, files2, Selection(3, 1), x1, x2)
    bad_files = sample_filestore(1, 2, 2, 5)
    with pytest.raises(ConfigurationError):
        execute_session(params, bad_files, files2, Selection(1, 1), x1, x2)


def test_mutations_tuple():
    assert MUTATIONS == ("reuse-pad", "leak-selection", "unmasked-messages")


def test_leak_selection_mutation_marks_transcript():
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=0.5, ell1=3, ell2=3)
    files1 = sample_filestore(1, 2, 3, 5)
    files2 = sample_filestore(2, 2, 3, 6)
    x1, x2 = _session_inputs(9, 64)
    t = execute_session(
        params, files1, files2, Selection(2, 1), x1, x2, mutation="leak-selection"
    )
    assert t.leaked_selection == 2
    assert t.to_record()["leaked_selection"] == 2


def test_transcript_record_excludes_private_partition():
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=0.5, ell1=3, ell2=3)
    files1 = sample_filestore(1, 2, 3, 5)
    files2 = sample_filestore(2, 2, 3, 6)
    x1, x2 = _session_inputs(9, 64)
    t = execute_session(params, files1, files2, Selection(1, 1), x1, x2)
    rec = t.to_record()
    assert "part" not in rec and "g1" not in str(rec.keys())


def test_public_bits_accounting():
    params = ProtocolParams(n=64, t_exponent=0.4, alpha=0.5, ell1=3, ell2=5)
    files1 = sample_filestore(1, 2, 3, 5)
    files2 = sample_filestore(2, 2, 5, 6)
    x1, x2 = _session_inputs(13, 64)
    t = execute_session(params, files1, files2, Selection(1, 2), x1, x2)
    assert t.public_bits_from_server(1) == 6
    assert t.public_bits_from_server(2) == 10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_run_session_adaptive_recovers(seed):
    params = ProtocolParams(n=32, t_exponent=0.45, alpha=0.5)
    rnd = PartyRandomness(seed, seed + 1, seed + 2)
    t, sized = run_session_adaptive(params, Selection(2, 1), rnd)
    assert type(sized.ell1) is int and type(sized.ell2) is int
    if not t.aborted:
        assert t.recovery_ok
        assert sized.ell1 <= math.floor(0.5 * min(32 // 2 + 16, 32))
