"""Party streams and uniform draws against numpy's own spawn-key and bytes paths.

``party_stream``, every stream of one batched hash, and ``trial_seeds`` must
give the state that ``SeedSequence(seed, spawn_key=key)`` gives; each field
of ``session_streams`` must be the stream of the spawn key the ``model``
docstring lists for it; and ``sample_uniform`` must return the bits of
``Generator.bytes`` and leave the generator exactly where ``bytes`` leaves
it, whatever was drawn from the generator before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir.bits import sample_uniform
from adder_spir import model
from adder_spir.model import PartyRandomness, party_stream, session_streams, trial_seeds

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 12345]
seeds = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**160)
key_elements = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64]) | st.integers(0, 2**64)
keys = st.lists(key_elements, max_size=4).map(tuple)


def reference_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def reference_seeds(entropy, key):
    return PartyRandomness(*map(int, np.random.SeedSequence(entropy, spawn_key=key).generate_state(3, np.uint64)))


def sweep_cell(master, n, alpha):
    return np.random.SeedSequence(master, spawn_key=(n, int(np.float64(alpha).view(np.uint64))))


@settings(max_examples=300, deadline=None)
@given(seeds, keys)
def test_party_stream_state_matches_spawn_key(seed, key):
    assert party_stream(seed, key).bit_generator.state == reference_stream(seed, key).bit_generator.state


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("key", [(), (0,), (1, 1), (3, 2**32), (2, 2**64 - 1, 0, 2**64)])
def test_party_stream_edge_cases(seed, key):
    assert party_stream(seed, key).bit_generator.state == reference_stream(seed, key).bit_generator.state


def same_stream(stream, seed, key):
    """``stream`` is ``reference_stream(seed, key)``: the same state, then the same first draws."""
    twin = reference_stream(seed, key)
    assert stream.bit_generator.state == twin.bit_generator.state
    assert stream.bytes(40) == twin.bytes(40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(seeds, keys), min_size=1, max_size=12))
def test_one_batched_hash_matches_spawn_keys(pairs):
    streams = model._streams(pairs)
    assert len(streams) == len(pairs)
    for stream, (seed, key) in zip(streams, pairs):
        same_stream(stream, seed, key)


@pytest.mark.parametrize("L1", [2, 3, 4, 5])
@pytest.mark.parametrize("L2", [2, 3, 4, 5])
def test_session_streams_follow_the_spawn_key_table(L1, L2):
    client, server1, server2 = 2**64 - 1, 7, 2**40 + 3
    streams = session_streams(PartyRandomness(client, server1, server2), L1, L2)
    rounds = range(1, (L1 - 1) * (L2 - 1) + 1)
    same_stream(streams.selection, client, ())
    for stream, seed in zip(streams.files, (server1, server2), strict=True):
        same_stream(stream, seed, (0,))
    for stream, seed, L in zip(streams.masks, (server1, server2), (L1, L2), strict=True):
        if L == 2:
            assert stream is None
        else:
            same_stream(stream, seed, (2,))
    assert len(streams.inputs) == len(streams.partitions) == len(rounds)
    for k, (x1, x2), partition in zip(rounds, streams.inputs, streams.partitions):
        same_stream(x1, server1, (1, k))
        same_stream(x2, server2, (1, k))
        same_stream(partition, client, (3, k))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(seeds, keys), max_size=6), st.data())
def test_a_negative_value_anywhere_in_a_batch_raises(pairs, data):
    at = data.draw(st.integers(0, len(pairs)), label="at")
    bad = data.draw(st.sampled_from([(-1, ()), (-1, (1, 1)), (5, (1, -1)), (5, (0, 2**64, -(2**64)))]), label="bad")
    with pytest.raises(ValueError):
        model._streams([*pairs[:at], bad, *pairs[at:]])


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(0, 2**64))
def test_trial_seeds_int_master(master, trial):
    assert trial_seeds(master, trial) == reference_seeds(master, (trial,))


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 2**20), st.floats(0.0, 1.0), st.integers(1, 2**32))
def test_trial_seeds_sweep_cell_master(master, n, alpha, trial):
    cell = sweep_cell(master, n, alpha)
    assert trial_seeds(cell, trial) == reference_seeds(master, (*cell.spawn_key, trial))


def test_negative_seeds_and_keys_raise():
    for call in (
        lambda: party_stream(-1, ()),
        lambda: party_stream(-1, (1, 1)),
        lambda: party_stream(5, (1, -1)),
        lambda: party_stream(5, (-(2**64),)),
        lambda: trial_seeds(-1, 1),
        lambda: trial_seeds(5, -1),
        lambda: trial_seeds(sweep_cell(5, 64, 0.5), -1),
    ):
        with pytest.raises(ValueError):
            call()


lengths = st.sampled_from([0, 1, 31, 32, 33, 900]) | st.integers(0, 2000)
draws = st.one_of(st.tuples(st.just("uniform"), lengths), st.just(("integers",)), st.just(("permutation",)))


def same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert (sa["state"], sa["has_uint32"]) == (sb["state"], sb["has_uint32"])
    if sa["has_uint32"]:
        assert sa["uinteger"] == sb["uinteger"]


@settings(max_examples=300, deadline=None)
@given(seeds, keys, st.lists(draws, max_size=12))
def test_sample_uniform_matches_bytes_after_any_draws(seed, key, program):
    stream, twin = party_stream(seed, key), reference_stream(seed, key)
    for op, *arg in program:
        if op == "uniform":
            (length,) = arg
            drawn = sample_uniform(length, stream)
            raw = np.frombuffer(twin.bytes((length + 7) // 8), dtype=np.uint8)
            assert len(drawn) == length
            assert drawn.bits.tolist() == np.unpackbits(raw)[:length].tolist()
        elif op == "integers":
            assert stream.integers(1, 5) == twin.integers(1, 5)
        else:
            assert stream.permutation(37).tolist() == twin.permutation(37).tolist()
        same_state(stream, twin)
    same_state(stream, twin)


@pytest.mark.parametrize("first", [0, 1, 31, 32, 33, 64, 900])
@pytest.mark.parametrize("second", [0, 1, 31, 32, 33, 64, 900])
def test_sample_uniform_pairs_of_lengths(first, second):
    stream, twin = party_stream(9, (0,)), reference_stream(9, (0,))
    for length in (first, second, first):
        drawn = sample_uniform(length, stream)
        raw = np.frombuffer(twin.bytes((length + 7) // 8), dtype=np.uint8)
        assert drawn.bits.tolist() == np.unpackbits(raw)[:length].tolist()
        same_state(stream, twin)
