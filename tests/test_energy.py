import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unzipseq.energy import (
    BASES,
    Base,
    BaseSequence,
    EnergyTable,
    Environment,
    ForceField,
    ModelParams,
    _trellis_paths,
    environment_from_json,
    hop_probability,
)
from unzipseq.rates import decision_margins

from bruteforce import trellis_paths_product
from conftest import make_env


def test_table1_values(table1):
    assert table1.values[Base.A, Base.A] == 1.78
    assert table1.values[Base.T, Base.A] == 1.06
    assert table1.values[Base.G, Base.C] == 3.90
    assert table1.values[Base.C, Base.G] == 3.85


def test_base_order_and_letters():
    assert Base.A < Base.T < Base.C < Base.G
    assert Base.from_letter("g") is Base.G
    with pytest.raises(ValueError):
        Base.from_letter("X")
    assert str(BaseSequence.from_string("ATCG")) == "ATCG"


def test_base_sequence_converts_each_base_once():
    # letters go through one table, either case; Base members are kept as
    # they are and ints become members; a bad letter or int is named
    seq = BaseSequence.from_string("atcGa")
    assert seq.bases == (Base.A, Base.T, Base.C, Base.G, Base.A)
    assert all(type(b) is Base for b in seq.bases)
    members = (Base.G, Base.A, Base.T)
    assert all(a is b for a, b in zip(BaseSequence(members).bases, members))
    assert BaseSequence((3, 0, 2)).bases == (Base.G, Base.A, Base.C)
    assert all(type(b) is Base for b in BaseSequence((3, 0)).bases)
    for letters, bad in (("AXG", "X"), ("AT-", "-"), ("ATn", "n")):
        with pytest.raises(ValueError, match=f"^unknown base letter '{bad}'$"):
            BaseSequence.from_string(letters)
    for value in (4, -1):
        with pytest.raises(ValueError, match=f"^{value} is not a valid Base$"):
            BaseSequence((0, value))
    with pytest.raises(ValueError, match="at least 2"):
        BaseSequence.from_string("a")


def test_base_sequence_array_is_one_read_only_copy():
    seq = BaseSequence.from_string("GATCCA")
    assert seq.array.tolist() == [int(b) for b in seq.bases]
    assert seq.array.dtype == np.intp and not seq.array.flags.writeable
    assert seq.array is seq.array  # built once
    assert seq == BaseSequence.from_string("GATCCA")  # not part of equality


def _delta_g(env, x):
    return env.edge_g0[x] - env.g1_padded[x]


def test_delta_g_examples():
    env = make_env("AAA", 1.78)
    assert _delta_g(env, 1) == pytest.approx(0.0, abs=1e-15)
    env0 = make_env("TAA", 0.0)
    assert _delta_g(env0, 1) == 1.06
    env1 = make_env("GCC", 1.0)
    assert _delta_g(env1, 1) == pytest.approx(2.90)


def test_hop_probability_values():
    assert hop_probability(0.0, 1.0) == 0.5
    assert hop_probability(0.0, 17.3) == 0.5
    # 1/(1 + e), evaluated independently at high precision
    assert hop_probability(1.0, 1.0) == pytest.approx(0.26894142136999512, abs=1e-16)
    p = hop_probability(1000.0, 1.0)
    assert 0.0 < p <= 1e-300 and not math.isnan(p)
    q = hop_probability(-1000.0, 1.0)
    assert 0.0 < q < 1.0 and q > 1 - 1e-15


@settings(max_examples=300, derandomize=True)
@given(
    dg=st.floats(-500, 500, allow_nan=False),
    beta=st.floats(1e-6, 50, allow_nan=False),
)
def test_hop_probability_symmetry(dg, beta):
    assert hop_probability(dg, beta) + hop_probability(-dg, beta) == pytest.approx(
        1.0, abs=1e-15
    )


def test_hop_monotone():
    grid = np.linspace(-30, 30, 101)
    vals = [hop_probability(v, 1.3) for v in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_free_energy_profile():
    env = make_env("AAA", 0.0)
    g = env.profile
    assert g[0] == 0.0
    assert g[1] == pytest.approx(1.78) and g[2] == pytest.approx(3.56)
    flat = make_env("AAA", 1.78)
    assert np.allclose(flat.profile, 0.0, atol=1e-15)


def test_profile_increments_match_delta_g():
    env = make_env("ATCGGTAC", 1.3)
    g = env.profile
    for x in range(1, env.M):
        b, c = env.seq.base(x), env.seq.base(x + 1)
        dg = env.table.values[b, c] - env.force.per_site[x - 1]
        assert g[x] - g[x - 1] == pytest.approx(dg, abs=1e-12)
        assert g[x] - g[x - 1] == pytest.approx(_delta_g(env, x), abs=1e-12)


def _zero_margins(table):
    """Rows and columns whose decision margin is zero, and the degenerate
    flag, in each mode: g0 is injective in a row (column) exactly when its
    margin is nonzero, so the margins are the injectivity check."""
    found = set()
    for mode in ("discrete", "continuous"):
        m = decision_margins(table, 1.0, g1=1.5, mode=mode)
        rows = frozenset(b for b, v in m.minus_per_base.items() if v <= 0.0)
        cols = frozenset(b for b, v in m.plus_per_base.items() if v <= 0.0)
        found.add((rows, cols, m.degenerate))
    (verdict,) = found  # both modes agree
    return verdict


def test_injectivity_table1(table1):
    assert _zero_margins(table1) == (set(), set(), False)


def test_injectivity_constructed_collision(table1):
    values = table1.values.copy()
    values[Base.A, Base.T] = values[Base.A, Base.A]
    # g0(A, T) := g0(A, A) = 1.78 collides in row A, and with g0(T, T) = 1.78
    # in column T; every other row and column stays injective
    assert _zero_margins(EnergyTable(values)) == ({Base.A}, {Base.T}, True)


def test_injectivity_constant_table():
    rows, cols, degenerate = _zero_margins(EnergyTable(np.full((4, 4), 2.0)))
    assert rows == cols == set(BASES) and degenerate


def test_jump_rates():
    env = make_env("AAAA", 0.0, beta=1.0, r=1.0)
    assert env.jump_rates.shape == (2, 4)
    fwd, bwd = env.jump_rates[:, 1]
    assert bwd == 0.0
    fwd, bwd = env.jump_rates[:, 2]
    assert fwd == pytest.approx(math.exp(-1.78), rel=1e-15)
    assert bwd == pytest.approx(1.0)
    # zero energies at zero force: both rates reduce to the bare scale r
    env0 = make_env("AAAA", 0.0, beta=1.7, r=2.5, table=EnergyTable(np.zeros((4, 4))))
    fwd, bwd = env0.jump_rates[:, 2]
    assert fwd == 2.5 and bwd == 2.5


def test_discrete_hop_matches_embedded_chain():
    env = make_env("ATCGGTAC", 1.9, beta=1.3, r=0.7)
    for x in range(2, env.M):
        fwd, bwd = env.jump_rates[:, x]
        dg = env.edge_g0[x] - env.force.per_site[x - 1]
        assert hop_probability(dg, env.beta) == pytest.approx(
            fwd / (fwd + bwd), abs=1e-12
        )


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(beta=0.0)
    with pytest.raises(ValueError):
        ModelParams(beta=1.0, rate_scale=-1.0)


def test_force_field_validation():
    with pytest.raises(ValueError):
        Environment(
            BaseSequence.from_string("ATG"),
            EnergyTable.default(),
            ForceField.constant(1.0, 5),
            ModelParams(),
        )
    f = ForceField(np.array([1.0, 2.0]))
    assert f.per_site.tolist() == [1.0, 2.0] and len(f) == 2


def test_environment_json_default_and_explicit_table():
    doc = {"sequence": "ATCG", "beta": 1.5, "r": 2.0, "g1": 1.1}
    env = environment_from_json(json.dumps(doc))
    assert str(env.seq) == "ATCG"
    assert env.table.values[Base.G, Base.C] == 3.90  # default table applies
    assert np.all(env.force.per_site == 1.1)
    assert (env.params.beta, env.params.rate_scale) == (1.5, 2.0)
    g0 = [[1.0 + i + 0.25 * j for j in range(4)] for i in range(4)]
    env = environment_from_json(json.dumps({**doc, "g0": g0, "g1": [0.5, 1.0, 1.5]}))
    assert np.array_equal(env.table.values, np.array(g0))
    assert np.array_equal(env.force.per_site, [0.5, 1.0, 1.5])
    assert env.edge_g0[1:].tolist() == [g0[0][1], g0[1][2], g0[2][3]]  # A-T, T-C, C-G


def test_environment_json_per_site_force_and_errors():
    env = environment_from_json(
        {"sequence": "ATCG", "beta": 1.0, "r": 1.0, "g1": [0.5, 1.0, 1.5]}
    )
    assert env.force.per_site.tolist() == [0.5, 1.0, 1.5]
    with pytest.raises(ValueError, match="unknown"):
        environment_from_json({"sequence": "AT", "beta": 1, "r": 1, "g1": 0, "oops": 1})
    with pytest.raises(ValueError, match="g1"):
        environment_from_json({"sequence": "AT", "beta": 1, "r": 1})


def test_environment_json_takes_numpy_numbers():
    doc = {"sequence": "ATCG", "beta": np.float64(1.5), "r": np.int64(2),
           "g1": np.array([0.5, 1.0, 1.5]), "g0": np.ones((4, 4), dtype=np.int64)}
    env = environment_from_json(doc)
    assert (env.params.beta, env.params.rate_scale) == (1.5, 2.0)
    assert env.force.per_site.tolist() == [0.5, 1.0, 1.5]
    assert np.array_equal(env.table.values, np.ones((4, 4)))


@pytest.mark.parametrize("sequence", [5, ["A", "T"], None])
def test_environment_json_non_string_sequence_refused(sequence):
    with pytest.raises(ValueError, match="sequence"):
        environment_from_json({"sequence": sequence, "beta": 1, "r": 1, "g1": 1})


def test_trellis_paths_match_product_enumeration():
    # random step masks, sparse ones with dead ends and dense ones with many
    # paths: every path in Base order, the cut, and the deepest dead end
    # agree with an enumeration of all 4^M base strings
    rng = np.random.default_rng(16)
    seen_dead_end = seen_cut = 0
    for M in range(2, 8):
        for density in (0.25, 0.4, 0.7):
            for _ in range(6):
                allowed = rng.random((M - 1, 4, 4)) < density
                starts = sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist())
                n_paths = len(trellis_paths_product(allowed, starts, 4**M)[0])
                for cap in sorted({1, 2, 3, max(n_paths - 1, 1), max(n_paths, 1), n_paths + 1}):
                    got = _trellis_paths(allowed, starts, cap)
                    want = trellis_paths_product(allowed, starts, cap)
                    assert got == want, (M, density, starts, cap)
                    seen_cut += got[1]
                    seen_dead_end += got[2] is not None
    assert seen_cut > 50 and seen_dead_end > 50
    with pytest.raises(ValueError, match="cap must be >= 1"):
        _trellis_paths(np.ones((2, 4, 4), bool), [0], 0)


def test_trellis_paths_follow_each_start_to_its_fork():
    # every base steps to the next one in Base order (A -> T -> C -> G -> A),
    # so each start follows its own single path; rows cut at site 300 end
    # start A, rows cut at site 700 end start C, and one row at site 990
    # forks start G; T runs through.  Paths come start by start in Base
    # order, the fork's lower step first, and the deepest dead end is C's
    M = 1000
    allowed = np.zeros((M - 1, 4, 4), dtype=bool)
    allowed[:, np.arange(4), (np.arange(4) + 1) % 4] = True
    at = lambda start, x: (start + x - 1) % 4  # noqa: E731  the base of a start at site x
    allowed[299, at(0, 300)] = False
    allowed[699, at(2, 700)] = False
    allowed[989, at(3, 990), Base.G] = True
    line = lambda start: [at(start, x) for x in range(1, M + 1)]  # noqa: E731
    forked = line(3)[:990] + [(at(3, 990) + 3 + k) % 4 for k in range(M - 990)]
    assert forked[990] == Base.G and forked[989] == Base.A
    starts = [0, 1, 2, 3]
    c_end = (700, at(2, 700))
    assert _trellis_paths(allowed, starts, 16) == ([line(1), line(3), forked], False, c_end)
    assert _trellis_paths(allowed, starts, 2) == ([line(1), line(3)], True, c_end)
    # one start: G alone forks and meets no dead end; A alone dead-ends
    assert _trellis_paths(allowed, [3], 16) == ([line(3), forked], False, None)
    assert _trellis_paths(allowed, [0], 16) == ([], False, (300, at(0, 300)))
    # the same masks cut to 7 sites agree with the enumeration of all strings
    small = allowed[:6].copy()
    small[2, at(0, 3)] = False
    small[4, at(2, 5)] = False
    small[5, at(3, 6), Base.T] = True
    for cap in (1, 2, 3, 16):
        assert _trellis_paths(small, starts, cap) == trellis_paths_product(small, starts, cap)
