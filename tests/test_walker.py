import gc
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from unzipseq import walker
from unzipseq.rates import count_moments, pbar
from unzipseq.walker import (
    MODES,
    AggregateStats,
    SeedSpec,
    StepCapExceeded,
    accumulate_checkpoints,
    simulate_ensemble,
    simulate_walk,
    verify_conservation,
    _stream_states,
    _stream_words,
    zero_stats,
)

from bruteforce import brute_pair_pmf, brute_pbar
from conftest import make_env, random_sequence


def test_m2_single_forced_step():
    env = make_env("AT", 0.4)
    for seed in (0, 1, 99):
        w = simulate_walk(env, "discrete", SeedSpec(seed), 0)
        assert w.up[1] == 1 and w.steps == 1
        assert verify_conservation(w) == []


def test_flow_identities_random_walks():
    rng = np.random.default_rng(7)
    for _ in range(60):
        M = int(rng.integers(2, 8))
        env = make_env(random_sequence(rng, M), float(rng.uniform(1.8, 3.2)))
        mode = MODES[int(rng.integers(0, 2))]
        w = simulate_walk(env, mode, SeedSpec(int(rng.integers(1 << 30))), 0)
        assert verify_conservation(w) == []
        assert w.up[M - 1] == 1
        for x in range(2, M):
            assert w.down[x] == w.up[x - 1] - 1
        assert w.steps == int(np.sum(w.up)) + int(np.sum(w.down))


def test_geometric_up_count_m3():
    # dg = 0 at the last edge: the walk leaves site 1, falls back Geom(1/2)
    # times, so L+_1 = 1 + Geometric and E L+_1 = 1/pbar_1 = 1 + e^0 = 2
    env = make_env("AAA", 1.78)
    assert 1.0 / pbar(env, 1) == pytest.approx(2.0)
    n = 20000
    tot = 0
    for rep in range(n):
        w = simulate_walk(env, "discrete", SeedSpec(5), rep)
        assert w.up[2] == 1  # the killing edge is crossed exactly once
        tot += int(w.up[1])
    mean = tot / n
    se = math.sqrt(count_moments(env, 1).var_up / n)
    assert abs(mean - 2.0) < 4 * se


def test_continuous_embedded_chain_matches_discrete():
    env = make_env("ATCGG", 2.1)
    for rep in range(10):
        wd = simulate_walk(env, "discrete", SeedSpec(17), rep)
        wc = simulate_walk(env, "continuous", SeedSpec(17), rep)
        assert np.array_equal(wd.up, wc.up) and np.array_equal(wd.down, wc.down)
        assert wc.sojourn is not None and wd.sojourn is None
        assert wc.wall_time == pytest.approx(float(np.sum(wc.sojourn)), abs=0.0)


def test_continuous_m2_sojourn_mean():
    # single exponential holding time at site 1 with rate r e^{-beta g0(b1,b2)}
    env = make_env("GC", 0.7, beta=1.0, r=2.0)
    rate = 2.0 * math.exp(-3.90)
    n = 20000
    agg = simulate_ensemble(env, n, "continuous", SeedSpec(23))
    mean = float(agg.sojourn[1]) / n
    se = (1.0 / rate) / math.sqrt(n)  # exponential: sd == mean
    assert abs(mean - 1.0 / rate) < 4 * se


def test_sojourn_mean_matches_closed_form():
    env = make_env("AAAAAA", 1.3, beta=1.0, r=1.5)
    n = 20000
    agg = simulate_ensemble(env, n, "continuous", SeedSpec(31))
    for x in range(1, env.M):
        m = count_moments(env, x)
        se = math.sqrt(m.var_sojourn / n)
        assert abs(float(agg.sojourn[x]) / n - m.e_sojourn) < 4 * se


def test_up_count_mean_flat_landscape():
    # flat landscape: E L+_x = M - x at every site
    env = make_env("A" * 10, 1.78)
    R = 100_000
    agg = simulate_ensemble(env, R, "discrete", SeedSpec(41))
    for x in range(1, 10):
        m = count_moments(env, x)
        assert m.e_up == pytest.approx(10 - x)
        se = math.sqrt(m.var_up / R)
        emp = float(agg.up[x]) / R
        assert abs(emp - m.e_up) <= 4 * se or se == 0.0
    assert agg.up[9] == R


def test_pair_frequencies_match_closed_form():
    # joint (L+_x, L-_x) frequencies vs the exact pmf, 4 SE per cell
    env = make_env("ATCG", 2.2)
    R = 30000
    counts: dict[tuple[int, int], int] = {}
    for rep in range(R):
        w = simulate_walk(env, "discrete", SeedSpec(53), rep)
        key = (int(w.up[2]), int(w.down[2]))
        counts[key] = counts.get(key, 0) + 1
    checked = 0
    for (a, c), obs in counts.items():
        p = brute_pair_pmf(env, 2, a, c)
        exp = R * p
        if exp >= 20:
            se = math.sqrt(R * p * (1 - p))
            assert abs(obs - exp) < 4.5 * se, (a, c, obs, exp)
            checked += 1
    assert checked >= 5


def test_ensemble_basics():
    env = make_env("ATCGG", 2.0)
    seed = SeedSpec(11)
    single = simulate_walk(env, "discrete", seed, 0)
    ens1 = simulate_ensemble(env, 1, "discrete", seed)
    assert np.array_equal(single.up, ens1.up) and ens1.R == 1
    ens = simulate_ensemble(env, 40, "discrete", seed)
    assert ens.up[env.M - 1] == 40
    assert verify_conservation(ens) == []
    with pytest.raises(ValueError):
        simulate_ensemble(env, 0, "discrete", seed)
    with pytest.raises(ValueError):
        simulate_ensemble(env, 5, "sometimes", seed)


def test_ensemble_determinism_and_nesting():
    env = make_env("ATCGG", 2.0)
    a = simulate_ensemble(env, 30, "continuous", SeedSpec(77))
    b = simulate_ensemble(env, 30, "continuous", SeedSpec(77))
    assert np.array_equal(a.up, b.up) and np.array_equal(a.down, b.down)
    assert np.array_equal(a.sojourn, b.sojourn) and a.wall_time == b.wall_time
    ck = accumulate_checkpoints(env, "continuous", SeedSpec(77), [10, 30])
    assert np.array_equal(ck[1].up, a.up)
    assert np.array_equal(ck[1].sojourn, a.sojourn)
    small = simulate_ensemble(env, 10, "continuous", SeedSpec(77))
    assert np.array_equal(ck[0].up, small.up)


def test_different_seeds_differ():
    env = make_env("ATCGGTACGG", 2.3)
    a = simulate_ensemble(env, 50, "discrete", SeedSpec(1))
    b = simulate_ensemble(env, 50, "discrete", SeedSpec(2))
    assert not np.array_equal(a.up, b.up)


def test_step_cap_abort():
    # zero force on a GC-rich molecule: absorption needs ~e^{beta sum g0} steps
    env = make_env("GCGCGCGC", 0.0)
    with pytest.raises(StepCapExceeded) as err:
        simulate_walk(env, "discrete", SeedSpec(3), 4, step_cap=50)
    assert err.value.replica == 4 and err.value.cap == 50


def test_verify_conservation_constructed_violations():
    env = make_env("ATCGG", 2.0)
    good = simulate_ensemble(env, 5, "discrete", SeedSpec(9))
    assert verify_conservation(good) == []
    bad_down = AggregateStats(
        up=good.up, down=good.down + np.eye(good.M, dtype=np.int64)[2],
        sojourn=None, steps=good.steps, wall_time=None, mode="discrete", R=5,
    )
    msgs = verify_conservation(bad_down)
    assert any("down[2]" in m for m in msgs)
    bad_last = AggregateStats(
        up=good.up - np.eye(good.M, dtype=np.int64)[good.M - 1],
        down=good.down, sojourn=None, steps=good.steps, wall_time=None,
        mode="discrete", R=5,
    )
    msgs = verify_conservation(bad_last)
    assert any("up[M-1]" in m for m in msgs)


def test_stats_json_roundtrip():
    env = make_env("ATCGG", 2.0)
    for mode in ("discrete", "continuous"):
        agg = simulate_ensemble(env, 7, mode, SeedSpec(13))
        doc = agg.to_json_dict()
        back = AggregateStats.from_json_dict(doc)
        assert np.array_equal(back.up, agg.up) and np.array_equal(back.down, agg.down)
        assert back.steps == agg.steps and back.R == agg.R and back.mode == mode
        if mode == "continuous":
            assert np.array_equal(back.sojourn, agg.sojourn)


def test_zero_stats():
    z = zero_stats(5, "continuous")
    assert z.R == 0 and z.steps == 0 and float(np.sum(z.sojourn)) == 0.0


def test_trace_mode():
    env = make_env("ATCGG", 2.0)
    w = simulate_walk(env, "discrete", SeedSpec(5), 0, trace=True)
    assert w.R == 1
    assert (w.path[0], w.path_times[0]) == (1, 0.0)
    assert w.path[-1] == env.M
    assert w.path.size == w.path_times.size == w.steps + 1
    wc = simulate_walk(env, "continuous", SeedSpec(5), 0, trace=True)
    assert np.all(np.diff(wc.path_times) >= 0)
    plain = simulate_walk(env, "discrete", SeedSpec(5), 0)
    assert plain.path is None and plain.path_times is None


def _stepwise(env, mode, streams, steps, x=1, rows=None):
    """Up to ``steps`` steps of a walk from site x, one draw at a time from
    its (direction, time) ``streams``: the reference for _walk's block loop.
    Returns the site reached, the (up, down, sojourn) rows, and the sites
    and times after each step."""
    continuous = mode == "continuous"
    p = env.up_probabilities
    fwd, bwd = env.jump_rates
    inv_rate = 1.0 / (fwd + bwd)
    up, down, sojourn = rows or ([0] * env.M, [0] * env.M, [0.0] * env.M)
    sites, times = [x], [0.0]
    for _ in range(steps):
        if x == env.M:
            break
        dt = float(streams[1].standard_exponential() * inv_rate[x]) if continuous else 1.0
        sojourn[x] += dt
        if streams[0].random() < p[x]:
            up[x] += 1
            x += 1
        else:
            down[x] += 1
            x -= 1
        sites.append(x)
        times.append(times[-1] + dt)
    return x, [up, down, sojourn], sites, times


# replicas of SeedSpec(19) on ("ATCGGTACGG", 2.6) by walk length: each length
# falls one step to either side of an edge of the first two draw blocks
# (64 and 576 draws)
_EDGE_WALKS = {63: 36, 65: 84, 575: 771, 577: 334}


@pytest.mark.parametrize("unread", [None, 0, 1, walker._BLOCK_INIT],
                         ids=["fresh", "resume-0", "resume-1", "resume-block"])
@pytest.mark.parametrize("mode", MODES)
def test_walk_step_cap_at_block_edges(mode, unread):
    # a walk of L steps passes with step_cap = L and raises with L - 1,
    # wherever L falls against the draw blocks: fresh and traced walks of
    # the lengths above, and the 577-step walk resumed k steps in with
    # `unread` draws already taken, k chosen so that its last step reads the
    # last draw of the first block it reads (the unread draws, or a fresh
    # block of 64 when there are none) or the first draw after it
    env = make_env("ATCGGTACGG", 2.6)
    seed = SeedSpec(19)
    continuous = mode == "continuous"

    def streams(replica):
        return [seed.stream(replica, sub) for sub in range(1 + continuous)]

    for L, replica in _EDGE_WALKS.items():
        x, want, sites, times = _stepwise(env, mode, streams(replica), L + 1)
        assert x == env.M and len(sites) == L + 1
        if unread is None:
            for trace in (False, True):
                walk = simulate_walk(env, mode, seed, replica, step_cap=L, trace=trace)
                assert walk.up.tolist() == want[0] and walk.down.tolist() == want[1]
                assert walk.steps == L
                if continuous:
                    assert walk.sojourn.tolist() == want[2]
                if trace:
                    assert walk.path.tolist() == sites and walk.path_times.tolist() == times
                    # the path's own moves tally to the counts
                    moves = np.diff(walk.path)
                    up = np.bincount(walk.path[:-1][moves == 1], minlength=env.M)
                    down = np.bincount(walk.path[:-1][moves == -1], minlength=env.M)
                    assert np.array_equal(up, walk.up) and np.array_equal(down, walk.down)
                with pytest.raises(StepCapExceeded) as err:
                    simulate_walk(env, mode, seed, replica, step_cap=L - 1, trace=trace)
                assert (err.value.replica, err.value.cap) == (replica, L - 1)
            continue
        if L != 577:
            continue
        for past in (0, 1):
            k = L - past - (unread or walker._BLOCK_INIT)
            for cap in (L, L - 1):
                gens = streams(replica)
                x, rows, _, _ = _stepwise(env, mode, gens, k)
                taken = [gens[0].random(unread).tolist()]
                taken += [gen.standard_exponential(unread).tolist() for gen in gens[1:]]
                rows = rows[: 2 + continuous]
                resume = lambda: walker._walk(walker._site_tables(env, continuous), gens, replica,
                                              cap, rows, x, k, taken)
                if cap == L - 1:
                    with pytest.raises(StepCapExceeded) as err:
                        resume()
                    assert (err.value.replica, err.value.cap) == (replica, cap)
                    continue
                resume()
                assert rows == want[: 2 + continuous], (past, cap)


def test_pbar_consistency_with_brute():
    env = make_env("ATCGGTA", 2.4, beta=0.8)
    for x in range(1, env.M):
        assert pbar(env, x) == pytest.approx(brute_pbar(env, x), rel=1e-12)


# --------------------------------------------------------------------------
# ensembles: batch-seeded streams, stepped in lockstep


def test_batch_seeding_matches_seed_sequence():
    # SeedSequence's hash run over arrays must give numpy's words exactly,
    # and the PCG64 arithmetic on them numpy's seeded states, across master
    # sizes (2**200 is longer than the pool), prefixes, substreams and
    # replica indices that take one or two key words
    replicas = list(range(2794)) + [2**32 - 1, 2**32, 2**32 + 7, 2**40 + 3, 2**64 - 1]
    order = walker._word_order()
    keys = 0
    for master in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200):
        for prefix in ((), (3,), (0, 5)):
            seed = SeedSpec(master, prefix)
            for substream in (0, 1):
                ids = np.array(replicas, dtype=np.uint64)
                words = _stream_words(seed, ids, substream)
                states = _stream_states(seed, ids, substream).tolist()
                ref_words, ref_states = [], []
                for r in replicas:
                    ss = np.random.SeedSequence(master, spawn_key=prefix + (r, substream))
                    ref_words.append(ss.generate_state(4, np.uint64))
                    ref_states.append(np.random.PCG64(ss).state["state"])
                assert np.array_equal(words, np.array(ref_words)), (master, prefix, substream)
                got = [{"state": row[order[0]] << 64 | row[order[1]],
                        "inc": row[order[2]] << 64 | row[order[3]]} for row in states]
                assert got == ref_states, (master, prefix, substream)
                keys += len(replicas)
    assert keys >= 100_000


def test_word_order_matches_the_state_setter():
    # the C word order is found afresh; a row written in it, with the shared
    # generator pointed at it, holds the state the public getter reports,
    # and the public setter writes its words into the row in that order
    walker._word_order.cache_clear()
    order = list(walker._word_order())
    assert sorted(order) == [0, 1, 2, 3]
    gen, state = walker._shared_stream()
    own = state.value
    words = [2**64 - 3, 5, 2**63 + 1, 7]
    row = np.zeros((1, 4), dtype=np.uint64)
    row[0, order] = words
    try:
        state.value = walker._state_address(row)
        assert gen.bit_generator.state["state"] == {"state": words[0] << 64 | words[1],
                                                    "inc": words[2] << 64 | words[3]}
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": words[3] << 64 | words[2],
                                             "inc": words[1] << 64 | words[0]}}
        assert row[0, order].tolist() == words[::-1]
    finally:
        state.value = own
    assert gen.bit_generator.state == np.random.PCG64(0).state
    # rows off the 16-byte grid are refused before any pointer is set
    buffer = np.zeros(9, dtype=np.uint64)
    skew = 1 - buffer.__array_interface__["data"][0] % 16 // 8
    with pytest.raises(RuntimeError, match="16-byte aligned"):
        walker._state_address(buffer[skew : skew + 8].reshape(2, 4))


def test_shared_streams_read_on_across_switches():
    # one shared generator per stream kind, pointed from replica A's state
    # row to B's and back between blocks of draws, reads each replica's
    # stream on exactly as the single walk's own stream does: on the masters
    # and prefixes above, for one- and two-word replica keys.  The draws
    # advance the rows alone: the generator's own state is as it was made
    some = [0, 1, 1023, 1024, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 5]
    for master in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200):
        for prefix in ((), (3,), (0, 5)):
            seed = SeedSpec(master, prefix)
            for substream, draw in ((0, "random"), (1, "standard_exponential")):
                gen, state = walker._shared_stream()
                own = state.value
                for block in (1, 63, 64, 2048):
                    states = _stream_states(seed, np.array(some, dtype=np.uint64), substream)
                    address = walker._state_address(states)
                    got = {r: [] for r in some}
                    try:
                        for a in range(len(some) - 1):
                            for i in (a, a + 1, a):
                                state.value = address + 32 * i
                                got[some[i]].append(getattr(gen, draw)(block))
                    finally:
                        state.value = own
                    for r, blocks in got.items():
                        blocks = np.concatenate(blocks)
                        want = getattr(seed.stream(r, substream), draw)(blocks.size)
                        assert np.array_equal(blocks, want), (master, prefix, r, block)
                assert gen.bit_generator.state == np.random.PCG64(0).state


@pytest.mark.parametrize("mode", MODES)
def test_lockstep_points_the_shared_streams_back(monkeypatch, mode):
    # each shared generator's state pointer is back at its own state after
    # _lockstep, whether it returns or raises StepCapExceeded from the
    # scalar tail, and the draws never touched that state.  At g1 = 3.6 a
    # few replicas of the chunk outlive the lockstep windows
    walker._word_order()  # found once, on a generator of its own
    made = []
    shared_stream = walker._shared_stream

    def spy():
        gen, state = shared_stream()
        made.append((gen, state, state.value, gen.bit_generator.state))
        return gen, state

    monkeypatch.setattr(walker, "_shared_stream", spy)
    env = make_env("ATCGGTACGG", 3.6)
    seed = SeedSpec(8)
    n = walker._chunk_size(env.M)
    lengths = np.array([simulate_walk(env, "discrete", seed, r).steps for r in range(n)])
    cap = int(lengths.max()) - 1
    assert 1 <= np.count_nonzero(lengths > walker._DRAW_BUDGET // n) < walker._LOCKSTEP_MIN
    assert _windows(lengths, cap)[-1][2] != "cap"
    continuous = mode == "continuous"
    for step_cap in (10**9, cap):
        made.clear()
        if step_cap == cap:
            with pytest.raises(StepCapExceeded) as err:
                walker._lockstep(env, seed, 0, n, continuous, step_cap)
            assert err.value.replica == int(np.argmax(lengths > cap))
        else:
            rows = walker._lockstep(env, seed, 0, n, continuous, step_cap)
            assert np.array_equal(rows[0].sum(axis=1) + rows[1].sum(axis=1), lengths)
        assert len(made) == 1 + continuous
        for gen, state, own, initial in made:
            assert state.value == own
            assert gen.bit_generator.state == initial


def _reference_sums(env, mode, seed, checkpoints):
    """Single walks summed in replica order, as the ensemble contract states."""
    up = np.zeros(env.M, dtype=np.int64)
    down = np.zeros(env.M, dtype=np.int64)
    sojourn = np.zeros(env.M)
    steps = 0
    out = {}
    for replica in range(max(checkpoints)):
        w = simulate_walk(env, mode, seed, replica)
        up += w.up
        down += w.down
        steps += w.steps
        if mode == "continuous":
            sojourn += w.sojourn
        if replica + 1 in checkpoints:
            out[replica + 1] = (up.copy(), down.copy(), steps, sojourn.copy(),
                                float(np.sum(sojourn)))
    return out


def _windows(lengths, step_cap=walker.DEFAULT_STEP_CAP):
    """The lockstep windows of one chunk whose walks take ``lengths`` steps,
    replayed from the walker's constants: (first step, width, cut) for each,
    where cut names what ended it, "budget" (_WINDOW_CELLS // live), "refill"
    (the end of the draw block) or "cap" (the step cap)."""
    step = col = block = 0
    out = []
    while step < step_cap:
        live = int(np.count_nonzero(lengths > step))
        if live < walker._LOCKSTEP_MIN:
            break
        if col == block:
            block, col = walker._DRAW_BUDGET // live, 0
        ends = {"budget": walker._WINDOW_CELLS // live, "refill": block - col,
                "cap": step_cap - step}
        cut = min(ends, key=ends.get)
        out.append((step, ends[cut], cut))
        step += ends[cut]
        col += ends[cut]
    return out


@pytest.mark.parametrize("M", [2, 3, 10, 100, 5000])
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_lockstep_matches_single_walks(M, mode):
    rng = np.random.default_rng(M)
    env = make_env(random_sequence(rng, M), {100: 3.3, 5000: 3.6}.get(M, 3.0))
    seed = SeedSpec(2**40 + M, (1,))
    n = walker._chunk_size(M)
    edges = {n - 1, n, n + 1, 2 * n + 1}
    least = walker._LOCKSTEP_MIN
    lengths = np.array([simulate_walk(env, "discrete", seed, r).steps for r in range(n)])
    cap = int(lengths.max())
    windows = _windows(lengths)
    if n < least:
        # past M = 4096 a chunk (13 replicas at M = 5000) is too small to
        # step in lockstep, so every walk resumes alone in the scalar tail
        # from its undrawn state rows: ensembles at the chunk's edges, and
        # below a step cap at, and one under, the first chunk's longest walk
        finals = sorted({1} | edges)
        marks = edges
        assert n == 13 and windows == []
    else:
        # ensembles that end at, or cross, the edges of the walker's chunk at
        # this M and those of a 256-replica chunk, and ensembles just under
        # and at the fewest replicas that step in lockstep
        finals = sorted({1, least - 1, least, 31, 32, 255, 256, 257, 1000} | edges)
        marks = {1, 2, 31, 32, 100, 255, 256, 257, 300, 511, 512, 513} | edges
        # the first chunk's windows: as long as the budget gives (6 steps for
        # a full chunk, 9 for the 655 replicas of a chunk at M = 100), cut
        # short by refills at M >= 10, with replicas absorbed inside them; a
        # step cap at the longest walk cuts the one window at M = 2 and the
        # last at M = 10
        assert windows[0][1] == walker._WINDOW_CELLS // n == (9 if M == 100 else 6)
        assert ("refill" in {cut for *_, cut in windows}) == (M >= 10)
        assert any(start < L < start + width for start, width, _ in windows for L in lengths)
        assert (_windows(lengths, cap)[-1][2] == "cap") == (M in (2, 10))
    ref = _reference_sums(env, mode, seed, set(finals) | marks)
    runs = [(R, walker.DEFAULT_STEP_CAP) for R in finals] + [(n, cap)]
    for R, step_cap in runs:
        ckpts = sorted(marks & set(range(R)))
        got = accumulate_checkpoints(env, mode, seed, ckpts + [R], step_cap=step_cap)
        assert [a.R for a in got] == ckpts + [R]
        for agg in got:
            up, down, steps, sojourn, wall = ref[agg.R]
            assert np.array_equal(agg.up, up) and np.array_equal(agg.down, down), (R, agg.R)
            assert agg.steps == steps, (R, agg.R)
            if mode == "continuous":
                assert np.array_equal(agg.sojourn, sojourn) and agg.wall_time == wall, (R, agg.R)
            else:
                assert agg.sojourn is None and agg.wall_time is None
    if n < least:
        with pytest.raises(StepCapExceeded) as err:
            accumulate_checkpoints(env, mode, seed, [1, n], step_cap=cap - 1)
        assert err.value.replica == int(np.argmax(lengths == cap)) and err.value.cap == cap - 1


@pytest.mark.parametrize("mode", MODES)
def test_lockstep_reopened_streams_match_single_walks(mode):
    # a full chunk draws `first` per stream, which advances each replica's
    # state rows; replicas still walking read on from their rows.
    # Cases: survivors that do so at the second refill, survivors of a
    # chunk that stops before that refill (so they do so in the scalar
    # tail), and a chunk straddling replica 2**32, whose upper half has
    # two-word keys
    n = walker._chunk_size(10)
    first = walker._DRAW_BUDGET // n
    least = walker._LOCKSTEP_MIN
    for g1, seed, lo, in_tail in ((2.6, SeedSpec(8), 0, False), (3.6, SeedSpec(8), 0, True),
                                  (2.6, SeedSpec(8, (4,)), 2**32 - n // 2, False)):
        env = make_env("ATCGGTACGG", g1)
        walks = [simulate_walk(env, mode, seed, r) for r in range(lo, lo + n)]
        lengths = np.array([w.steps for w in walks])
        survivors = np.flatnonzero(lengths > first) + lo
        assert (1 <= survivors.size < least) if in_tail else survivors.size >= least
        if lo >= 2**32 - n:
            assert survivors.max() >= 2**32
        rows = walker._lockstep(env, seed, lo, lo + n, mode == "continuous", 10**9)
        assert np.array_equal(rows[0], [w.up for w in walks])
        assert np.array_equal(rows[1], [w.down for w in walks])
        assert np.array_equal(rows[0].sum(axis=1) + rows[1].sum(axis=1), lengths)
        if mode == "continuous":
            assert np.array_equal(rows[2], [w.sojourn for w in walks])
        if lo == 0:
            agg = simulate_ensemble(env, n, mode, seed)
            up, down, steps, sojourn, wall = _reference_sums(env, mode, seed, {n})[n]
            assert np.array_equal(agg.up, up) and np.array_equal(agg.down, down)
            assert agg.steps == steps
            if mode == "continuous":
                assert np.array_equal(agg.sojourn, sojourn) and agg.wall_time == wall


def test_lockstep_step_cap_names_lowest_replica():
    # E = 172.2 steps per walk: every cap here is at or over it, so each
    # ensemble starts walking and stops at its lowest replica over the cap
    env = make_env("ATCGGTACGG", 2.6)
    seed = SeedSpec(19)
    n = walker._chunk_size(env.M)
    R = 2 * n + 1
    lengths = np.array([simulate_walk(env, "discrete", seed, r).steps for r in range(R)])
    expected = math.ceil(math.exp(env.log_steps_per_walk))
    # caps met in lockstep by replicas whose streams were read on after
    # their first block: at the expectation itself, by replica 0 on the step
    # that absorbs it, and just past that step, where replica 0 finishes on
    # the cap and a later one is named; then first in chunk 1 (past replica
    # n - 1), and first past replica 255; then caps that cut chunk 0's
    # windows, a 16-step one after its first step and a window that a
    # refill would cut after 15 steps
    caps = [expected, int(lengths[0]) - 1, int(lengths[0]), int(lengths[:n].max()),
            int(lengths[:256].max()), 184, 265]
    first = [int(np.argmax(lengths > cap)) for cap in caps]
    assert expected == 173 and min(caps) > walker._DRAW_BUDGET // n
    assert first[:2] == [0, 0] and first[2] > 0 and first[3] >= n and first[4] >= 256
    assert all(np.count_nonzero(lengths[:n] > cap) >= 32 for cap in caps[:3] + caps[5:])
    windows = _windows(lengths[:n])
    assert (183, 16, "budget") in windows and (260, 15, "refill") in windows
    for cap in (expected, *caps[5:]):
        assert _windows(lengths[:n], cap)[-1][2] == "cap"
    for cap, replica in zip(caps, first):
        for mode in MODES:
            with pytest.raises(StepCapExceeded) as want:
                for r in range(R):
                    simulate_walk(env, mode, seed, r, step_cap=cap)
            with pytest.raises(StepCapExceeded) as got:
                simulate_ensemble(env, R, mode, seed, step_cap=cap)
            assert got.value.replica == want.value.replica == replica and got.value.cap == cap


@pytest.mark.parametrize("letters,g1,cap,log10_steps", [
    ("ATCGGTACGG", 2.6, 172, "2.2"),  # one step under the expectation
    ("ATCGGTACGG", 2.6, 135, "2.2"),  # the median walk
    ("ATCGGTACGG", 2.6, 100, "2.2"),  # past the first draw block
    ("GCGCGCGC", 0.0, 50, "10.4"),
    ("GC" * 20, 2.0, walker.DEFAULT_STEP_CAP, "31.4"),
], ids=["under-expectation", "median", "reopen", "gc-zero-force", "gc40-default-cap"])
def test_ensemble_refused_when_expected_walk_exceeds_cap(letters, g1, cap, log10_steps):
    # refused before the first step, by every ensemble entry point; a single
    # walk is not checked, so it still walks until it meets the cap
    env = make_env(letters, g1)
    message = (f"expected 10^{log10_steps} steps per walk, over the step cap {cap}; "
               f"raise the force or the step cap")
    t0 = time.perf_counter()
    for mode in MODES:
        for run in (lambda: simulate_ensemble(env, 2000, mode, SeedSpec(19), step_cap=cap),
                    lambda: accumulate_checkpoints(env, mode, SeedSpec(19), [10, 2000],
                                                   step_cap=cap)):
            with pytest.raises(StepCapExceeded) as err:
                run()
            assert str(err.value) == message
            assert err.value.replica is None and err.value.cap == cap
    assert time.perf_counter() - t0 < 1.0
    if cap < 10**6:
        with pytest.raises(StepCapExceeded) as err:
            for r in range(2000):
                simulate_walk(env, "discrete", SeedSpec(19), r, step_cap=cap)
        assert err.value.replica is not None


def test_lockstep_memory_stays_flat():
    # a full chunk keeps one draw buffer, each replica's draws in its own
    # row, its count and sojourn rows, and every replica's streams as rows
    # of PCG64 states, 32 B per replica per stream (64 KiB in all), read
    # through one shared generator per stream kind.  Keeping a Generator
    # (~760 B) per replica, or a second copy of the draw buffer, would
    # break the bound
    env = make_env("ATCGGTACGG", 3.0)
    seed = SeedSpec(8)
    n = walker._chunk_size(env.M)
    assert n == walker._CHUNK
    first = walker._DRAW_BUDGET // n
    survivors = sum(simulate_walk(env, "discrete", seed, r).steps > first for r in range(n))
    draw_buffer = 2 * walker._DRAW_BUDGET * 8  # 1 MiB: two streams of 2**16 float64
    cells = 3 * (env.M + 1) * n * 8  # 264 KiB: count and sojourn cells
    streams = survivors * 2 * 1024  # headroom over the 64 KiB of stream state rows
    rest = 192 * 1024  # stream seeds, result rows, temporaries
    simulate_ensemble(env, 40, "continuous", seed)  # imports numpy.random
    tracemalloc.start()
    try:
        simulate_ensemble(env, n, "continuous", seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 32 <= survivors < n // 2
    assert peak < draw_buffer + cells + streams + rest, (peak, survivors)


def test_ensemble_uses_batch_seeding(monkeypatch):
    calls = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        calls.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(walker.np.random, "SeedSequence", counted)
    env = make_env("ATCGGTACGG", 3.0)
    for mode in MODES:
        agg = simulate_ensemble(env, 1000, mode, SeedSpec(4))
        assert verify_conservation(agg) == []
    assert calls == []
    SeedSpec(4).stream(0)
    assert len(calls) == 1


def test_ensemble_builds_no_stream_per_replica(monkeypatch):
    # a chunk holds its replicas' streams as rows of PCG64 states, seeded in
    # one pass over both stream kinds, and reads them all through one
    # generator per kind: also when replicas outlive their first block, and
    # across a chunk edge
    walker._word_order()  # found once, on a bit generator of its own
    built, hashed = [], []
    pcg64, stream_words = np.random.PCG64, walker._stream_words

    def counted_pcg64(*args):
        built.append(args)
        return pcg64(*args)

    def counted_words(seed, replicas, substreams):
        pairs = zip(replicas.tolist(), np.broadcast_to(substreams, replicas.shape).tolist())
        hashed.append(sorted(pairs))
        return stream_words(seed, replicas, substreams)

    monkeypatch.setattr(walker.np.random, "PCG64", counted_pcg64)
    monkeypatch.setattr(walker, "_stream_words", counted_words)
    short = make_env("ATCGGTACGG", 3.0)
    long = make_env(random_sequence(np.random.default_rng(100), 100), 3.3)
    for env, R in ((short, 1024), (short, 2049), (long, 200)):
        seed = SeedSpec(8, (R,))
        n = min(R, walker._chunk_size(env.M))
        lengths = [simulate_walk(env, "discrete", seed, r).steps for r in range(R)]
        assert sum(L > walker._DRAW_BUDGET // n for L in lengths) >= walker._LOCKSTEP_MIN, R
        chunks = [range(lo, min(lo + n, R)) for lo in range(0, R, n)]
        for mode in MODES:
            continuous = mode == "continuous"
            ref = _reference_sums(env, mode, seed, {R})[R]
            built.clear()
            hashed.clear()
            agg = simulate_ensemble(env, R, mode, seed)
            assert len(built) == (1 + continuous) * len(chunks), (R, mode)
            assert hashed == [[(r, sub) for r in chunk for sub in range(1 + continuous)]
                              for chunk in chunks]
            up, down, steps, sojourn, wall = ref
            assert np.array_equal(agg.up, up) and np.array_equal(agg.down, down), (R, mode)
            assert agg.steps == steps == sum(lengths)
            if continuous:
                assert np.array_equal(agg.sojourn, sojourn) and agg.wall_time == wall


def test_ensemble_leaves_the_cyclic_gc_idle():
    # streams held as Python objects per replica (a PCG64 and its lock each,
    # ~2,000 tracked objects per chunk) ran ~43 gen-0 collections per
    # continuous ensemble at this size; state rows are one array per kind
    letters = "".join(random.Random(10).choice("ATCG") for _ in range(10))
    env = make_env(letters, 3.0)
    simulate_ensemble(env, 100, "continuous", SeedSpec(10))  # imports numpy.random
    collected = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 0:
            collected.append(info)

    gc.collect()
    gc.callbacks.append(count)
    try:
        agg = simulate_ensemble(env, 10**4, "continuous", SeedSpec(10))
    finally:
        gc.callbacks.remove(count)
    assert agg.R == 10**4 and verify_conservation(agg) == []
    assert len(collected) <= 4, len(collected)
