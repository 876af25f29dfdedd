import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir.bits import BitString, sample_uniform
from adder_spir.model import (
    ConfigurationError,
    FileStore,
    PartyRandomness,
    ProtocolParams,
    Selection,
    party_stream,
    sample_filestore,
    session_streams,
    trial_seeds,
)
from adder_spir.multifile import (
    build_chain,
    chain_multifile,
    execute_multifile,
    flatten_rounds,
    plan_multifile,
    plan_selection,
    reconstruct,
    request_schedule,
    round_selection,
    run_multifile,
    sample_masks,
)
from adder_spir import multifile, oracle
from adder_spir.bits import AffineBits
from adder_spir.protocol import MUTATIONS, client_partitioner, open_round


# ---------------------------------------------------------------------------
# chains


def test_build_chain_two_values():
    a, b = BitString.from_bits([1, 0]), BitString.from_bits([0, 1])
    assert build_chain([a, b], []) == ((a, b),)


def test_build_chain_three_values_structure():
    f1, f2, f3 = (BitString.from_bits(bits) for bits in ([1, 0], [0, 1], [1, 1]))
    (s,) = (BitString.from_bits([1, 0]),)
    pairs = build_chain([f1, f2, f3], [s])
    assert pairs == ((f1, s), (f2 ^ s, s ^ f3))


def test_build_chain_validation():
    vals = [BitString.zeros(2)] * 3
    with pytest.raises(ValueError):
        build_chain(vals[:1], [])
    with pytest.raises(ValueError):
        build_chain(vals, [])  # wrong mask count
    with pytest.raises(ValueError):
        build_chain(vals, [BitString.zeros(3)])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chain_telescopes_to_any_value(L, seed):
    stream = party_stream(seed, (0,))
    entries = [sample_uniform(4, stream) for _ in range(L)]
    masks = [sample_uniform(4, stream) for _ in range(L - 2)]
    pairs = build_chain(entries, masks)
    for Z in range(1, L + 1):
        chosen = [pairs[t - 1][b - 1] for t, b in zip(range(1, L), round_selection(Z, L))]
        assert reconstruct(Z, L, chosen) == entries[Z - 1]


def test_round_selection_frozen():
    assert round_selection(1, 3) == (1, 1)
    assert round_selection(2, 3) == (2, 1)
    assert round_selection(3, 3) == (2, 2)
    with pytest.raises(ValueError):
        round_selection(4, 3)


def test_reconstruct_validation():
    with pytest.raises(ValueError):
        reconstruct(1, 3, [BitString.zeros(1)])


# ---------------------------------------------------------------------------
# round pairing and symbolic schedules


def test_flatten_rounds_frozen_3x4():
    assert flatten_rounds(3, 4) == (
        ((1, 1), (1, 1)),
        ((2, 1), (1, 2)),
        ((1, 2), (2, 1)),
        ((2, 2), (2, 2)),
        ((1, 3), (3, 1)),
        ((2, 3), (3, 2)),
    )


def test_flatten_rounds_covers_all_pairs():
    for L1, L2 in itertools.product(range(2, 5), repeat=2):
        pairing = flatten_rounds(L1, L2)
        assert len(pairing) == (L1 - 1) * (L2 - 1)
        assert set(p[0] for p in pairing) == {
            (t, i) for t in range(1, L1) for i in range(1, L2)
        }
        assert set(p[1] for p in pairing) == {
            (t, j) for t in range(1, L2) for j in range(1, L1)
        }


def test_chain_symbols_frozen_three():
    # build_chain over XOR-sets of atoms: the symbolic chain contents.
    f = lambda l: frozenset({("file", l, 1)})
    s = lambda t: frozenset({("mask", t, 1)})
    assert build_chain([f(1), f(2), f(3)], [s(1)]) == ((f(1), s(1)), (f(2) ^ s(1), s(1) ^ f(3)))
    assert build_chain([f(1), f(2)], []) == ((f(1), f(2)),)


def _sym_reconstruct(Z, L, chosen):
    # Mirrors reconstruct(): XOR the first Z requested values (all of them
    # when the last file is the target), here over symbolic atom sets.
    used = chosen[:Z] if Z < L else chosen
    acc = frozenset()
    for v in used:
        acc ^= v
    return acc


def test_request_schedule_telescopes_symbolically():
    # Combining the requested branch values per the reconstruction rule must
    # collapse each part's chain to exactly the requested file's atom.
    for L1, L2 in itertools.product(range(2, 5), repeat=2):
        for z1 in range(1, L1 + 1):
            for z2 in range(1, L2 + 1):
                schedule = request_schedule(L1, L2, z1, z2)
                pairing = flatten_rounds(L1, L2)
                for i in range(1, L2):
                    chosen = {t1: req1 for ((t1, pi), _), (req1, _) in zip(pairing, schedule) if pi == i}
                    ordered = [chosen[t] for t in range(1, L1)]
                    assert _sym_reconstruct(z1, L1, ordered) == frozenset({("file", z1, i)})
                for j in range(1, L1):
                    chosen = {t2: req2 for (_, (t2, pj)), (_, req2) in zip(pairing, schedule) if pj == j}
                    ordered = [chosen[t] for t in range(1, L2)]
                    assert _sym_reconstruct(z2, L2, ordered) == frozenset({("file", z2, j)})


# ---------------------------------------------------------------------------
# end-to-end


def _multifile_setup(L1, L2, seed, part_len=3, n=64):
    params = ProtocolParams(
        n=n, t_exponent=0.45, alpha=0.5, L1=L1, L2=L2, ell1=part_len, ell2=part_len
    )
    files1 = sample_filestore(1, L1, part_len * (L2 - 1), party_stream(seed, (0,)))
    files2 = sample_filestore(2, L2, part_len * (L1 - 1), party_stream(seed + 1, (0,)))
    return params, files1, files2


def test_run_multifile_recovers_3x4():
    params, files1, files2 = _multifile_setup(3, 4, 100)
    rnd = PartyRandomness(7, 8, 9)
    mt = run_multifile(params, files1, files2, Selection(2, 3), session_streams(rnd, params.L1, params.L2))
    assert not mt.aborted
    assert mt.recovered[0] == files1.file(2)
    assert mt.recovered[1] == files2.file(3)
    assert mt.round_count == 6


def test_run_multifile_download_cost():
    params, files1, files2 = _multifile_setup(3, 4, 200)
    rnd = PartyRandomness(17, 18, 19)
    mt = run_multifile(params, files1, files2, Selection(1, 1), session_streams(rnd, params.L1, params.L2))
    assert not mt.aborted
    assert mt.public_bits_from_server(1) / files1.file_length == 2 * (params.L1 - 1)
    assert mt.public_bits_from_server(2) / files2.file_length == 2 * (params.L2 - 1)


def test_run_multifile_deterministic():
    params, files1, files2 = _multifile_setup(2, 3, 300)
    rnd = PartyRandomness(1, 2, 3)
    a = run_multifile(params, files1, files2, Selection(2, 1), session_streams(rnd, params.L1, params.L2))
    b = run_multifile(params, files1, files2, Selection(2, 1), session_streams(rnd, params.L1, params.L2))
    assert a.to_record() == b.to_record()


def test_run_multifile_validates_divisibility():
    params = ProtocolParams(n=64, t_exponent=0.45, alpha=0.5, L1=3, L2=4, ell1=3, ell2=3)
    files1 = sample_filestore(1, 3, 7, party_stream(5, (0,)))  # 7 not divisible by L2 - 1 = 3
    files2 = sample_filestore(2, 4, 6, party_stream(6, (0,)))
    with pytest.raises(ConfigurationError):
        run_multifile(params, files1, files2, Selection(1, 1), session_streams(PartyRandomness(1, 2, 3), 3, 4))


def test_run_multifile_round_selections_follow_schedule():
    params, files1, files2 = _multifile_setup(3, 3, 400)
    rnd = PartyRandomness(4, 5, 6)
    sel = Selection(3, 2)
    mt = run_multifile(params, files1, files2, sel, session_streams(rnd, params.L1, params.L2))
    z1_rounds = round_selection(sel.z1, 3)
    z2_rounds = round_selection(sel.z2, 3)
    for ((t1, _i), (t2, _j)), (r1, r2) in zip(mt.pairing, mt.round_selections):
        assert (r1, r2) == (z1_rounds[t1 - 1], z2_rounds[t2 - 1])


@settings(max_examples=40, deadline=None)
@given(
    L1=st.sampled_from([2, 3, 4]),
    L2=st.sampled_from([2, 3, 4]),
    n=st.integers(8, 48),
    part_len=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_sessions_follow_request_schedule(L1, L2, n, part_len, seed, data):
    """Every executed round recovers the XOR of its scheduled atoms.

    The atoms are evaluated on the real file parts and on the masks
    ``sample_masks`` draws from the same server seeds.
    """
    z1 = data.draw(st.integers(1, L1), label="z1")
    z2 = data.draw(st.integers(1, L2), label="z2")
    params = ProtocolParams(n=n, t_exponent=0.45, alpha=0.5, L1=L1, L2=L2, ell1=part_len, ell2=part_len)
    rnd = trial_seeds(seed, 1)
    files = (
        sample_filestore(1, L1, part_len * (L2 - 1), party_stream(rnd.server1_seed, (0,))),
        sample_filestore(2, L2, part_len * (L1 - 1), party_stream(rnd.server2_seed, (0,))),
    )
    masks = (
        sample_masks(L1, L2 - 1, part_len, party_stream(rnd.server1_seed, (2,))),
        sample_masks(L2, L1 - 1, part_len, party_stream(rnd.server2_seed, (2,))),
    )
    parts = tuple([f.split(L - 1) for f in store.files] for store, L in zip(files, (L2, L1)))

    def value(server: int, atoms) -> BitString:
        acc = BitString.zeros(part_len)
        for kind, index, part in atoms:
            if kind == "file":
                acc ^= parts[server][index - 1][part - 1]
            else:
                acc ^= masks[server][part - 1][index - 1]
        return acc

    mt = run_multifile(params, *files, Selection(z1, z2), session_streams(rnd, L1, L2))
    schedule = request_schedule(L1, L2, z1, z2)
    for transcript, requested in zip(mt.transcripts, schedule):
        if transcript.aborted:
            break
        assert transcript.recovered == (value(0, requested[0]), value(1, requested[1]))
    assert mt.aborted == any(t.aborted for t in mt.transcripts)
    if not mt.aborted:
        assert len(mt.transcripts) == len(schedule)
        assert mt.recovery_ok is True
        assert mt.recovered == (files[0].file(z1), files[1].file(z2))
    else:
        assert mt.recovery_ok is None


# ---------------------------------------------------------------------------
# plans: checked once, run on many channel-input draws


def _plan_inputs(L1=3, L2=4, part_len=2, n=32, seed=50):
    params, files1, files2 = _multifile_setup(L1, L2, seed, part_len, n)
    masks1 = sample_masks(L1, L2 - 1, part_len, party_stream(seed + 2, (2,)))
    masks2 = sample_masks(L2, L1 - 1, part_len, party_stream(seed + 3, (2,)))
    return params, files1, files2, masks1, masks2


def _openings(params, seed, client_seed=0):
    """Every round of one reduction opened, also those after an abort."""
    K = (params.L1 - 1) * (params.L2 - 1)
    return [
        open_round(
            params, sample_uniform(params.n, party_stream(seed, (1, k))),
            sample_uniform(params.n, party_stream(seed + 1, (1, k))),
            client_partitioner(party_stream(client_seed, (3, k))),
        )
        for k in range(1, K + 1)
    ]


_BAD_INPUTS = {
    "params": (dict(params=ProtocolParams(n=32, t_exponent=0.45, alpha=2, L1=3, L2=4, ell1=2, ell2=2)),
               r"^alpha must lie in \[0, 1\]$"),
    "store-size": (dict(files1=sample_filestore(1, 4, 6, party_stream(1, (0,)))),
                   r"^file store sizes must match \(L1, L2\)$"),
    "divisible-1": (dict(files1=sample_filestore(1, 3, 7, party_stream(1, (0,)))),
                    r"^server-1 file length 7 not divisible by 3$"),
    "divisible-2": (dict(files2=sample_filestore(2, 4, 5, party_stream(1, (0,)))),
                    r"^server-2 file length 5 not divisible by 2$"),
    "round-lengths": (dict(files2=sample_filestore(2, 4, 6, party_stream(1, (0,)))),
                      r"^per-round lengths \(2, 3\) disagree with params \(2, 2\)$"),
    "selection": (dict(sel=Selection(4, 1)), r"^z1=4 outside \[1, 3\]$"),
    "mutation": (dict(mutation="nope"), r"^unknown mutation 'nope'; choose from \("),
}


@pytest.mark.parametrize("bad", sorted(_BAD_INPUTS))
def test_plan_rejects_bad_inputs(bad):
    params, files1, files2, masks1, masks2 = _plan_inputs()
    args = dict(params=params, files1=files1, files2=files2, sel=Selection(1, 1), masks1=masks1, masks2=masks2)
    override, message = _BAD_INPUTS[bad]
    args.update(override)
    with pytest.raises(ConfigurationError, match=message):
        plan_multifile(**args)


def test_execute_rejects_wrong_round_count():
    params, *inputs = _plan_inputs()
    plan = plan_multifile(params, *inputs[:2], Selection(1, 1), *inputs[2:])
    openings = _openings(params, 60)
    assert not any(o.abort_reason for o in openings)
    for count in (5, 7):
        with pytest.raises(ConfigurationError, match=r"^expected openings of 6 rounds$"):
            execute_multifile(plan, (openings * 2)[:count])


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("mutation", [None, "reuse-pad"])
def test_one_plan_runs_like_fresh_plans(shape, mutation):
    # One plan reused over many channel-input draws, some aborting, gives the
    # transcripts of a fresh plan per draw, and leaves the plan unchanged.
    params, files1, files2, masks1, masks2 = _plan_inputs(*shape, n=12)
    for sel in (Selection(1, 1), Selection(params.L1, 2)):
        plan = plan_multifile(params, files1, files2, sel, masks1, masks2, mutation=mutation)
        before = repr(plan)
        outcomes = set()
        for draw in range(12):
            openings = _openings(params, 1000 + 10 * draw, draw)
            fresh = plan_multifile(params, files1, files2, sel, masks1, masks2, mutation=mutation)
            mt = execute_multifile(plan, openings)
            ref = execute_multifile(fresh, openings)
            assert mt.to_record() == ref.to_record()
            assert (mt.recovered, mt.recovery_ok) == (ref.recovered, ref.recovery_ok)
            outcomes.add(mt.aborted)
        assert repr(plan) == before
        assert outcomes == {False, True}


def _selections(params) -> list:
    return [Selection(z1, z2) for z1 in range(1, params.L1 + 1) for z2 in range(1, params.L2 + 1)]


def _outcome(mt) -> tuple:
    """What a run returns that a plan decides: the record (the public words
    of each round, on symbolic values), the recovered files and whether
    they are the requested ones (the ``TypeError`` it raises when that
    depends on a free bit)."""
    try:
        ok = mt.recovery_ok
    except TypeError as error:
        ok = str(error)
    if not any(isinstance(t.m11, AffineBits) for t in mt.transcripts):
        return mt.to_record(), mt.recovered, ok
    rounds = [
        (t.aborted, t.abort_reason, t.y.tobytes(), oracle._public_of(t)[0], t.leaked_selection,
         None if t.aborted else [m.words() for m in (t.m11, t.m12, t.m21, t.m22)])
        for t in mt.transcripts
    ]
    recovered = None if mt.recovered is None else [v.words() for v in mt.recovered]
    return (mt.L1, mt.L2, mt.pairing, mt.round_selections, mt.aborted, rounds), recovered, ok


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_plans_on_shared_chains_run_like_fresh_plans(shape, mutation):
    # One chaining serves every selection's plan; each runs every draw of
    # channel inputs, some aborting, as a fresh plan_multifile does.
    params, files1, files2, masks1, masks2 = _plan_inputs(*shape, n=12)
    chains = chain_multifile(params, files1, files2, masks1, masks2)
    draws = [_openings(params, 2000 + 10 * draw, draw) for draw in range(6)]
    outcomes = set()
    for sel in _selections(params):
        shared = plan_selection(chains, sel, mutation=mutation)
        fresh = plan_multifile(params, files1, files2, sel, masks1, masks2, mutation=mutation)
        assert repr(shared) == repr(fresh)
        for openings in draws:
            mt = execute_multifile(shared, openings)
            assert _outcome(mt) == _outcome(execute_multifile(fresh, openings))
            outcomes.add(mt.aborted)
    assert outcomes == {False, True}


@pytest.mark.parametrize("params", [
    ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, ell1=1, ell2=0),
    ProtocolParams(n=2, t_exponent=0.4, alpha=1.0, L1=3, L2=2, ell1=1, ell2=0),
    ProtocolParams(n=2, t_exponent=0.4, alpha=0.0, L1=2, L2=3, ell1=0, ell2=1),
], ids=["2x2", "3x2", "2x3"])
@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_shared_chains_of_symbolic_inputs_run_like_fresh_plans(params, mutation):
    # The oracle's symbolic files and masks, chained once for every
    # selection: each selection's plan runs every sequence of the
    # enumeration's symbolic openings as a fresh plan_multifile does.
    enumeration = oracle._Enumeration(params, False, mutation, classes=True)
    files1, files2, masks1, masks2 = enumeration.symbols
    chains = chain_multifile(params, files1, files2, masks1, masks2)
    sequences = [enumeration.openings(rounds)[0] for rounds, _combos, _size in enumeration.sequences()]
    outcomes = set()
    for sel in _selections(params):
        shared = plan_selection(chains, sel, mutation=mutation)
        fresh = plan_multifile(params, files1, files2, sel, masks1, masks2, mutation=mutation)
        for opened in sequences:
            mt = execute_multifile(shared, opened)
            assert _outcome(mt) == _outcome(execute_multifile(fresh, opened))
            outcomes.add(mt.aborted)
    assert outcomes == {False, True}


def _counted_sessions(monkeypatch) -> list:
    """The calls ``execute_multifile`` makes to ``execute_session`` from now on."""
    calls = []
    execute_session = multifile.execute_session

    def counted(*args, **kwargs):
        calls.append(1)
        return execute_session(*args, **kwargs)

    monkeypatch.setattr(multifile, "execute_session", counted)
    return calls


def test_a_plan_answers_each_opening_once(monkeypatch):
    # The same opening objects run twice on one plan: each round is answered
    # once, and the second run returns the first run's transcripts.
    params, *inputs = _plan_inputs()
    plan = plan_multifile(params, *inputs[:2], Selection(2, 3), *inputs[2:])
    openings = _openings(params, 60)
    calls = _counted_sessions(monkeypatch)
    first = execute_multifile(plan, openings)
    again = execute_multifile(plan, openings)
    assert len(calls) == len(openings) == 6
    assert again.to_record() == first.to_record()
    assert (again.recovered, again.recovery_ok) == (first.recovered, first.recovery_ok) != (None, None)
    assert all(a is b for a, b in zip(again.transcripts, first.transcripts))


def test_a_plan_answers_distinct_openings_again(monkeypatch):
    # Openings equal in value but distinct objects are answered again, and
    # one opening object passed for every round is answered at each round.
    params, *inputs = _plan_inputs()
    sel = Selection(2, 3)
    plan = plan_multifile(params, *inputs[:2], sel, *inputs[2:])
    calls = _counted_sessions(monkeypatch)
    first = execute_multifile(plan, _openings(params, 60))
    again = execute_multifile(plan, _openings(params, 60))
    assert len(calls) == 12
    assert again.to_record() == first.to_record()
    repeated = [_openings(params, 60)[0]] * 6
    fresh = plan_multifile(params, *inputs[:2], sel, *inputs[2:])
    assert execute_multifile(plan, repeated).to_record() == execute_multifile(fresh, repeated).to_record()
    assert len(calls) == 24


def test_plans_on_shared_chains_share_the_rounds_they_choose_alike(monkeypatch):
    # A round's two-file stores come from the pairing, not the selection,
    # so the plans of every selection on one set of chains answer a round
    # opening once per round index, branch choices and mutation, and each
    # run's record is a fresh plan's.
    params, *inputs = _plan_inputs()
    chains = chain_multifile(params, *inputs)
    openings = _openings(params, 60)
    calls = _counted_sessions(monkeypatch)
    plans = [plan_selection(chains, sel) for sel in _selections(params)]
    runs = [execute_multifile(plan, openings) for plan in plans]
    choices = {(k, choice) for plan in plans for k, choice in enumerate(plan.selections)}
    assert len(calls) == len(chains.answers) == len(choices) < len(plans) * len(openings)
    for plan, mt in zip(plans, runs):
        assert not mt.aborted and mt.to_record() == execute_multifile(
            plan_multifile(params, *inputs[:2], plan.sel, *inputs[2:]), openings).to_record()
    transcripts = {}
    for plan, mt in zip(plans, runs):
        for k, t in enumerate(mt.transcripts):
            assert transcripts.setdefault((k, plan.selections[k]), t) is t
    calls.clear()
    execute_multifile(plan_selection(chains, Selection(1, 1), mutation="reuse-pad"), openings)
    assert len(calls) == len(openings)


def test_plans_on_shared_chains_share_each_aborted_round(monkeypatch):
    # execute_session answers an opening that aborted before it reads the
    # selection or the mutation, so every plan on one set of chains shares
    # one answer to it per round index, whatever its branch choices and
    # mutation; a round that went on is still answered once per branch
    # choices and mutation.
    params, *inputs = _plan_inputs()
    chains = chain_multifile(params, *inputs)
    live = _openings(params, 60)[0]
    # Every output decodable (all 0, then all 2): both abort.
    zeros, ones = BitString.zeros(params.n), BitString.ones(params.n)
    aborted = [open_round(params, x, x, client_partitioner(party_stream(0, (3, 1)))) for x in (zeros, ones)]
    assert live.abort_reason is None and {o.abort_reason for o in aborted} == {"size-deviation"}
    plans = [plan_selection(chains, sel, mutation=mutation) for sel in _selections(params) for mutation in (None, *MUTATIONS)]
    calls = _counted_sessions(monkeypatch)
    sequences = [[opening] for opening in aborted] + [[live, opening] for opening in aborted]
    runs = [[execute_multifile(plan, openings) for plan in plans] for openings in sequences]
    first_rounds = {(plan.selections[0], plan.mutation) for plan in plans}
    assert len(calls) == len(chains.answers) == 4 + len(first_rounds)
    for openings, shared in zip(sequences, runs):
        assert shared[0].transcripts[-1].y is openings[-1].y
        assert all(mt.aborted and mt.transcripts[-1] is shared[0].transcripts[-1] for mt in shared)
        for plan, mt in zip(plans, shared):
            fresh = plan_multifile(params, *inputs[:2], plan.sel, *inputs[2:], mutation=plan.mutation)
            assert mt.to_record() == execute_multifile(fresh, openings).to_record()


def test_run_multifile_opens_no_round_after_an_abort(monkeypatch):
    # Rounds are opened one at a time: a session that aborts in round k
    # opened k rounds, and their verdicts are the transcripts' own.
    opened = []
    open_round = multifile.open_round

    def counted(*args, **kwargs):
        opened.append(open_round(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(multifile, "open_round", counted)
    params = ProtocolParams(n=12, t_exponent=0.45, alpha=0.5, L1=3, L2=3, ell1=2, ell2=2)
    files1, files2 = sample_filestore(1, 3, 4, party_stream(1, (0,))), sample_filestore(2, 3, 4, party_stream(2, (0,)))
    early = 0
    for trial in range(1, 41):
        opened.clear()
        mt = run_multifile(params, files1, files2, Selection(1, 1), session_streams(trial_seeds(7, trial), 3, 3))
        assert len(opened) == len(mt.transcripts)
        assert [o.abort_reason for o in opened] == [t.abort_reason for t in mt.transcripts]
        early += mt.aborted and len(mt.transcripts) < mt.round_count
    assert early
