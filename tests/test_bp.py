"""Max-product message passing solver."""

import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cgalign import bp, matchers
from cgalign import (BpConfig, Mapping, MutationSpec, bp_iterate, brute_force_optimum,
                     build_problem, estimate_mode, generate_graph, init_state,
                     max_weight_matching, mutate, nap_objective, node_weight_map, solve_mwm,
                     solve_nap)
from cgalign import SimilarityConfig, SimilarityMatrix, build_similarity_matrix

from conftest import dense_sim, make_graph


def problem_of(scores, edges_a=(), edges_b=(), alpha=0.75, names=("A", "B")):
    arr = np.asarray(scores, dtype=float)
    a = make_graph(arr.shape[0], edges=edges_a, name=names[0])
    b = make_graph(arr.shape[1], edges=edges_b, name=names[1])
    return build_problem(dense_sim(arr), a, b, alpha=alpha)


def test_config_validation():
    with pytest.raises(ValueError):
        BpConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        BpConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        BpConfig(damping=1.0)
    with pytest.raises(ValueError):
        BpConfig(threads=0)


@pytest.mark.parametrize("field, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", "0.5"),
    ("epsilon", True), ("max_iterations", True), ("max_iterations", 2.5),
    ("max_iterations", "10"), ("threads", 2.5), ("threads", True), ("threads", False),
    ("threads", np.float64(2.0)), ("damping", float("nan")), ("damping", "0.3"),
    ("epsilon", -0.0), ("damping", -0.0),
])
def test_config_rejects_non_finite_or_mistyped_values(field, value):
    with pytest.raises(ValueError, match=field) as info:
        BpConfig(**{field: value})
    assert "\n" not in str(info.value)
    valid = {"epsilon": np.float64(0.2), "max_iterations": np.int64(3),
             "threads": np.int64(2), "damping": np.float64(0.5)}
    assert getattr(BpConfig(**{field: valid[field]}), field) == valid[field]


def test_initial_state_is_zero_messages():
    p = problem_of([[0.9, 0.2], [0.2, 0.8]], edges_a=[(0, 1)], edges_b=[(0, 1)])
    st = init_state(p, BpConfig())
    assert np.all(st.f == 0.0) and np.all(st.g == 0.0)
    assert np.all(st.h_uv == 0.0) and np.all(st.h_vu == 0.0)
    assert st.iteration == 0
    # belief of zero messages: scaled weight plus full link support
    support = np.zeros(p.n_candidates)
    np.add.at(support, p.link_u, (1 - p.alpha) * p.link_w)
    np.add.at(support, p.link_v, (1 - p.alpha) * p.link_w)
    assert np.allclose(st.p_hat, p.alpha * p.node_weights + support)


def test_state_refuses_another_problem_or_config():
    edges = dict(edges_a=[(0, 1)], edges_b=[(0, 1)])
    p = problem_of([[0.9, 0.2], [0.2, 0.8]], alpha=0.75, **edges)
    other = problem_of([[0.9, 0.2], [0.2, 0.8]], alpha=0.2, **edges)
    st = init_state(p, BpConfig())
    with pytest.raises(ValueError, match="another problem"):
        bp_iterate(other, st)
    with pytest.raises(ValueError, match="another problem"):
        estimate_mode(other, st)
    for config in (BpConfig(threads=4), BpConfig(epsilon=0.2), BpConfig(damping=0.5)):
        with pytest.raises(ValueError, match="another config"):
            bp_iterate(p, st, config)
    assert st.iteration == 0 and np.all(st.f == 0.0)  # refused calls change nothing
    bp_iterate(p, st)  # no config: the state's own
    bp_iterate(p, st, BpConfig())  # an equal config is the same config
    assert st.iteration == 2


def test_single_candidate_converges_in_one_iteration():
    p = problem_of([[0.6]], alpha=1.0)
    cfg = BpConfig(epsilon=0.0)
    st = init_state(p, cfg)
    bp_iterate(p, st, cfg)
    assert st.f[0] == pytest.approx(0.6)
    assert st.g[0] == pytest.approx(0.6)
    assert st.p_hat[0] == pytest.approx(0.6)
    assert estimate_mode(p, st).sorted_pairs() == [(0, 0)]


def test_all_negative_weights_give_empty_mode():
    p = no_positive_belief_problem()
    cfg = BpConfig(epsilon=0.5)
    st = init_state(p, cfg)
    for _ in range(5):
        bp_iterate(p, st, cfg)
    assert np.all(st.p_hat < 0.0)
    assert estimate_mode(p, st) == Mapping.empty()


def test_square_instance_reaches_brute_force_value():
    p = problem_of([[1.0, 0.1], [0.1, 1.0]], edges_a=[(0, 1)], edges_b=[(0, 1)],
                   alpha=0.75)
    mapping, diag = solve_nap(p, BpConfig())
    assert mapping.sorted_pairs() == [(0, 0), (1, 1)]
    assert diag.best_objective == pytest.approx(1.75, abs=1e-12)
    bf_mapping, bf_value = brute_force_optimum(p)
    assert mapping == bf_mapping
    assert diag.best_objective == pytest.approx(bf_value, abs=1e-12)


def with_belief(p, belief):
    st = init_state(p, BpConfig())
    st.p_hat = np.asarray(belief, dtype=float)
    return st


def test_estimate_mode_prefers_higher_belief_in_shared_row():
    p = problem_of([[0.9, 0.4]], alpha=1.0)
    st = with_belief(p, [0.9, 0.4])
    assert estimate_mode(p, st).sorted_pairs() == [(0, 0)]


def test_estimate_mode_empty_when_all_nonpositive():
    p = problem_of([[0.5, 0.5]], alpha=1.0)
    st = with_belief(p, [-0.1, 0.0])
    assert estimate_mode(p, st) == Mapping.empty()


def test_empty_problem():
    a = make_graph(0, name="A")
    b = make_graph(0, name="B")
    sim = build_similarity_matrix(a, b, SimilarityConfig())
    p = build_problem(sim, a, b)
    mapping, diag = solve_nap(p, BpConfig())
    assert mapping == Mapping.empty()
    assert diag.iterations == 0
    assert diag.converged


def test_identity_on_identical_graphs():
    g = generate_graph(24, edge_density=0.12, seed=41, name="g")
    sim = build_similarity_matrix(g, g, SimilarityConfig())
    p = build_problem(sim, g, g)
    mapping, diag = solve_nap(p, BpConfig())
    assert mapping.sorted_pairs() == [(i, i) for i in range(24)]


def test_matches_mwm_on_linear_instances():
    # no squares and epsilon 0: the chain decomposes into independent rows
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_a, n_b = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        p = problem_of(rng.uniform(0, 1, (n_a, n_b)), alpha=1.0)
        mapping, _ = solve_nap(p, BpConfig(epsilon=0.0))
        best = solve_mwm(node_weight_map(p))
        assert nap_objective(p, mapping) == pytest.approx(
            nap_objective(p, best), abs=1e-12)


def test_message_support_fixed_for_whole_run():
    p = problem_of([[0.9, 0.3], [0.2, 0.7]], edges_a=[(0, 1)], edges_b=[(0, 1)])
    cfg = BpConfig()
    st = init_state(p, cfg)
    shapes = (len(st.f), len(st.g), len(st.h_uv), len(st.h_vu))
    for _ in range(10):
        bp_iterate(p, st, cfg)
        assert (len(st.f), len(st.g), len(st.h_uv), len(st.h_vu)) == shapes
    assert shapes == (p.n_candidates, p.n_candidates, len(p.link_w), len(p.link_w))


def test_best_objective_equals_trace_maximum():
    g = generate_graph(10, edge_density=0.2, seed=43, name="A")
    h = generate_graph(10, edge_density=0.2, seed=44, name="B")
    sim = build_similarity_matrix(g, h, SimilarityConfig())
    p = build_problem(sim, g, h)
    mapping, diag = solve_nap(p, BpConfig())
    assert diag.best_objective == pytest.approx(max(diag.objective_trace))
    assert diag.best_objective == pytest.approx(nap_objective(p, mapping))
    assert diag.best_objective >= 0.0


def test_solver_is_deterministic():
    g = generate_graph(12, edge_density=0.2, seed=45, name="A")
    h = generate_graph(12, edge_density=0.2, seed=46, name="B")
    sim = build_similarity_matrix(g, h, SimilarityConfig())
    p = build_problem(sim, g, h)
    m1, d1 = solve_nap(p, BpConfig())
    m2, d2 = solve_nap(p, BpConfig())
    assert m1 == m2
    assert d1.objective_trace == d2.objective_trace


def test_threaded_run_is_bit_identical():
    g = generate_graph(40, edge_density=0.1, seed=47, name="A")
    h = generate_graph(40, edge_density=0.1, seed=48, name="B")
    sim = build_similarity_matrix(g, h, SimilarityConfig())
    p = build_problem(sim, g, h)
    states = []
    for threads in (1, 4):
        cfg = BpConfig(threads=threads)
        st = init_state(p, cfg)
        for _ in range(8):
            bp_iterate(p, st, cfg)
        states.append(st)
    assert np.array_equal(states[0].f, states[1].f)
    assert np.array_equal(states[0].g, states[1].g)
    assert np.array_equal(states[0].h_uv, states[1].h_uv)
    assert np.array_equal(states[0].h_vu, states[1].h_vu)
    m1, _ = solve_nap(p, BpConfig(threads=1))
    m4, _ = solve_nap(p, BpConfig(threads=4))
    assert m1 == m4


def test_solve_leaves_no_thread_behind(monkeypatch):
    g = generate_graph(60, edge_density=0.05, seed=51, name="A")
    p = build_problem(build_similarity_matrix(g, g, SimilarityConfig()), g, g)
    config = BpConfig(threads=4, max_iterations=5)
    before = set(threading.enumerate())
    for _ in range(2):
        solve_nap(p, config)
        assert set(threading.enumerate()) <= before

    def fail(*args):
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(bp, "objective_at", fail)
    with pytest.raises(RuntimeError, match="scoring failed"):
        solve_nap(p, config)
    assert set(threading.enumerate()) <= before


def reference_solve(problem, config):
    """solve_nap's loop with every mode a Mapping, as it ran before modes were positions.

    Each step rounds all positive beliefs with max_weight_matching, scores the
    Mapping with nap_objective and tests stability by Mapping equality.
    """
    state = init_state(problem, config)
    best, best_objective, trace = Mapping.empty(), 0.0, []
    stop_reason, converged = "iteration_limit", False
    previous, stable = None, 0
    steps = config.max_iterations + 1 if problem.n_candidates and config.max_iterations else 0
    for step in range(steps):
        if step:
            bp_iterate(problem, state)
        positive = state.p_hat > 0.0
        mode = max_weight_matching(problem.cand_rows[positive], problem.cand_cols[positive],
                                   state.p_hat[positive])
        objective = nap_objective(problem, mode)
        trace.append(objective)
        if objective > best_objective:
            best, best_objective = mode, objective
        if state.delta < bp.MESSAGE_TOL:
            stop_reason, converged = "message_tolerance", True
            break
        if mode == previous:
            stable += 1
            if stable >= bp.MODE_STABLE_WINDOW:
                stop_reason, converged = "mode_stable", True
                break
        else:
            stable, previous = 0, mode
    if problem.n_candidates == 0:
        converged, stop_reason = True, "empty"
    return best, trace, state.iteration, stop_reason, converged


def mutated_problem(n, seed, sparsity=0.0, insert=0, delete=0):
    a = generate_graph(n, edge_density=3.0 / (n - 1), seed=seed, name="A")
    spec = MutationSpec(insert=insert, delete=delete, perturb=n // 10,
                        rewire=len(a.edges) // 10)
    b, _ = mutate(a, spec, seed=seed + 1)
    return build_problem(build_similarity_matrix(a, b, SimilarityConfig(sparsity_ratio=sparsity)),
                         a, b)


def one_to_one_problem():
    """Candidates on the diagonal only, with squares between them: no two share a row or column."""
    n = 8
    edges = [(i, (i + 1) % n) for i in range(n)]
    diagonal = np.arange(n, dtype=np.int64)
    sim = SimilarityMatrix(n_a=n, n_b=n, rows=diagonal, cols=diagonal,
                           scores=np.linspace(0.3, 0.9, n))
    return build_problem(sim, make_graph(n, edges=edges, name="A"),
                         make_graph(n, edges=edges, name="B"))


def no_positive_belief_problem():
    p = problem_of([[0.2, 0.1], [0.15, 0.05]], alpha=1.0)
    p.node_weights[:] = [-0.3, -0.1, -0.2, -0.4]
    return p


def rounding_cases():
    """(label, problem, config): the shapes of problem the rounding must treat alike."""
    for n, seed in ((8, 1), (12, 3), (20, 5), (30, 7), (16, 9)):
        yield "dense n=%d" % n, mutated_problem(n, seed), BpConfig(max_iterations=200)
    yield "dense, damped", mutated_problem(20, 11), BpConfig(damping=0.3, max_iterations=200)
    for seed in (13, 15, 17, 23):  # churn's pairs: 5% inserted, 5% deleted
        p = mutated_problem(120, seed, insert=6, delete=6)
        for cap in (12, 1000):
            yield "churn seed=%d cap=%d" % (seed, cap), p, BpConfig(max_iterations=cap)
    for seed in (27, 41):  # the mode changes yet keeps its size for many steps
        yield ("churn n=60 seed=%d" % seed, mutated_problem(60, seed, insert=3, delete=3),
               BpConfig())
    for n, seed in ((150, 21), (200, 23), (120, 25)):
        yield "sparsity 0.99 n=%d" % n, mutated_problem(n, seed, 0.99), BpConfig(max_iterations=100)
    yield "one-to-one", one_to_one_problem(), BpConfig()
    yield "no positive belief", no_positive_belief_problem(), BpConfig()
    empty = make_graph(0, name="A")
    yield "empty", build_problem(build_similarity_matrix(empty, empty), empty, empty), BpConfig()


ROUNDING_CASES = list(rounding_cases())


@pytest.mark.parametrize("case", range(len(ROUNDING_CASES)),
                         ids=[label for label, _, _ in ROUNDING_CASES])
def test_solve_matches_the_mapping_loop(case):
    _, p, config = ROUNDING_CASES[case]
    mapping, diag = solve_nap(p, config)
    expected = reference_solve(p, config)
    assert (mapping, diag.objective_trace, diag.iterations, diag.stop_reason,
            diag.converged) == expected
    assert diag.mode_seconds >= 0.0 and diag.score_seconds >= 0.0
    assert diag.mode_seconds + diag.score_seconds <= diag.seconds


def test_rounding_cases_cover_every_shape():
    assert len(ROUNDING_CASES) >= 20
    stops = {solve_nap(p, config)[1].stop_reason for _, p, config in ROUNDING_CASES}
    assert stops == {"iteration_limit", "message_tolerance", "mode_stable", "empty"}


@pytest.mark.parametrize("label", ["dense n=20", "churn seed=13 cap=12", "sparsity 0.99 n=150",
                                   "one-to-one", "no positive belief"])
def test_rounding_assigns_only_the_conflicted_rows_and_columns(monkeypatch, label):
    p, config = next((p, config) for name, p, config in ROUNDING_CASES if name == label)
    shapes = []

    def recording(cost, maximize):
        assert maximize is False  # assign hands scipy the negated matrix itself
        shapes.append(cost.shape)
        return linear_sum_assignment(cost, maximize=maximize)

    linear_sum_assignment = matchers.linear_sum_assignment
    monkeypatch.setattr(matchers, "linear_sum_assignment", recording)
    rows, cols = p.cand_rows.tolist(), p.cand_cols.tolist()
    st = init_state(p, config)
    split = 0  # steps whose assignment left out some positive pair
    for step in range(12):
        if step:
            bp_iterate(p, st)
        positive = np.flatnonzero(st.p_hat > 0.0).tolist()
        in_row = Counter(rows[t] for t in positive)
        in_col = Counter(cols[t] for t in positive)
        conflicted = [t for t in positive if in_row[rows[t]] > 1 or in_col[cols[t]] > 1]
        shapes.clear()
        estimate_mode(p, st)
        if conflicted:
            shape = (len({rows[t] for t in conflicted}), len({cols[t] for t in conflicted}))
            # a tall matrix reaches scipy transposed, as scipy would solve it
            assert shapes == [shape if shape[0] <= shape[1] else shape[::-1]]
            split += len(conflicted) < len(positive)
        else:
            assert shapes == []
    if label.startswith("sparsity"):
        assert split > 0


def reference_iterate(problem, state):
    """The whole-array update: every link gathered, damped, diffed and clipped at once.

    Only the link half is kept here; the candidate terms come from the state's
    own belief step, fed with the support of the clamped inputs computed below.
    The inputs are computed from the reference's own messages, before and after
    the update, and f_new and g_new are copies, so no array is shared with the
    buffers the belief step writes.
    """
    d = state.config.damping
    wl = (1.0 - problem.alpha) * problem.link_w
    f_new, g_new = state._f_next.copy(), state._g_next.copy()
    in_u = np.clip(wl + state.h_vu, 0.0, wl)
    in_v = np.clip(wl + state.h_uv, 0.0, wl)
    h_uv_new = state.p_hat[problem.link_u] - in_u
    h_vu_new = state.p_hat[problem.link_v] - in_v
    if d > 0.0:
        f_new = (1.0 - d) * f_new + d * state.f
        g_new = (1.0 - d) * g_new + d * state.g
        h_uv_new = (1.0 - d) * h_uv_new + d * state.h_uv
        h_vu_new = (1.0 - d) * h_vu_new + d * state.h_vu
    pairs = ((f_new, state.f), (g_new, state.g),
             (h_uv_new, state.h_uv), (h_vu_new, state.h_vu))
    state.delta = float(max((np.max(np.abs(new - old)) for new, old in pairs if len(new)),
                            default=0.0))
    state.f, state.g, state.h_uv, state.h_vu = f_new, g_new, h_uv_new, h_vu_new
    in_u = np.clip(wl + state.h_vu, 0.0, wl)
    in_v = np.clip(wl + state.h_uv, 0.0, wl)
    n_cand = problem.n_candidates
    state._support_u[...] = np.bincount(problem.link_u, weights=in_u, minlength=n_cand)
    state._support_v[...] = np.bincount(problem.link_v, weights=in_v, minlength=n_cand)
    state.iteration += 1
    bp._beliefs(state)


def block_cases():
    """(label, problem): no links, fewer than one default block, and more."""
    yield "no links", problem_of([[0.9, 0.3, 0.1], [0.2, 0.7, 0.4]])
    for n, density, seed in ((20, 0.15, 3), (30, 0.15, 3)):
        a = generate_graph(n, edge_density=density, seed=seed, name="A")
        b = generate_graph(n, edge_density=density, seed=seed + 1, name="B")
        p = build_problem(build_similarity_matrix(a, b, SimilarityConfig()), a, b)
        yield "%d links" % len(p.link_w), p


BLOCK_CASES = list(block_cases())


def test_block_cases_cover_the_edges():
    links = [len(p.link_w) for _, p in BLOCK_CASES]
    assert links[0] == 0
    assert 0 < links[1] < bp.LINK_BLOCK  # one block
    assert links[2] > bp.LINK_BLOCK
    assert all(n % bp.LINK_BLOCK and n % 7 for n in links[1:])


# one link per block only on the small problems: on the large one it adds
# nothing that seven per block does not show, at a hundred times the cost
BLOCKINGS = [(case, block) for case, (_, p) in enumerate(BLOCK_CASES)
             for block in (1, 7, bp.LINK_BLOCK) if block > 1 or len(p.link_w) < bp.LINK_BLOCK]


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("damping", [0.0, 0.3])
@pytest.mark.parametrize("case, block", BLOCKINGS,
                         ids=["%s-block %d" % (BLOCK_CASES[c][0], b) for c, b in BLOCKINGS])
def test_blocked_update_matches_whole_array_reference(monkeypatch, case, block, damping,
                                                      threads):
    p = BLOCK_CASES[case][1]
    config = BpConfig(damping=damping, threads=threads)
    reference = init_state(p, config)
    monkeypatch.setattr(bp, "LINK_BLOCK", block)
    blocked = init_state(p, config)
    for _ in range(8):
        reference_iterate(p, reference)
        bp_iterate(p, blocked)
        assert blocked.delta == reference.delta
    for name in ("f", "g", "h_uv", "h_vu", "p_hat"):
        assert np.array_equal(getattr(blocked, name).view(np.int64),
                              getattr(reference, name).view(np.int64)), name


def dense_problem():
    """Many links per candidate: 2,500 candidates and over 200,000 links."""
    a = generate_graph(50, edge_density=0.2, seed=3, name="A")
    b = generate_graph(50, edge_density=0.2, seed=4, name="B")
    p = build_problem(build_similarity_matrix(a, b, SimilarityConfig()), a, b)
    assert len(p.link_w) >= 200_000
    return p


def test_iteration_and_scoring_allocate_no_link_length_array():
    p = dense_problem()
    link_array = 8 * len(p.link_w)
    mapping = Mapping.from_pairs((i, i) for i in range(p.n_a))
    for damping in (0.0, 0.3):
        config = BpConfig(damping=damping)
        st = init_state(p, config)
        bp_iterate(p, st)  # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            bp_iterate(p, st)
            iterate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            nap_objective(p, mapping)
            score_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterate_peak < link_array
        assert score_peak < len(p.link_w)  # not even one bool per link


@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_state_holds_two_link_length_arrays(damping):
    p = dense_problem()
    link_array = 8 * len(p.link_u)
    tracemalloc.start()
    try:
        st = init_state(p, BpConfig(damping=damping))
        bp_iterate(p, st)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # h_uv and h_vu, the link pass's four block buffers, and the candidate
    # arrays: 2,500 candidates, so these are small next to the links
    assert held <= 2 * link_array + 8 * (4 * bp.LINK_BLOCK + 20 * p.n_candidates)
    link_length = sorted(name for name, value in vars(st).items()
                         if isinstance(value, np.ndarray) and value.dtype == np.float64
                         and value.size >= len(p.link_u))
    assert link_length == ["h_uv", "h_vu"]


def test_damping_still_converges_to_same_fixed_point():
    p = problem_of([[1.0, 0.1], [0.1, 1.0]], edges_a=[(0, 1)], edges_b=[(0, 1)])
    plain, _ = solve_nap(p, BpConfig())
    damped, diag = solve_nap(p, BpConfig(damping=0.5))
    assert plain == damped
    assert diag.converged


def test_message_memory_accounting():
    p = problem_of([[0.9, 0.3], [0.2, 0.7]], edges_a=[(0, 1)], edges_b=[(0, 1)])
    st = init_state(p, BpConfig())
    expected = 8 * (2 * p.n_candidates + 2 * len(p.link_w))
    assert st.message_memory_bytes() == expected


def test_ops_counter_positive_and_stable():
    g = generate_graph(9, edge_density=0.2, seed=49, name="A")
    h = generate_graph(9, edge_density=0.2, seed=50, name="B")
    sim = build_similarity_matrix(g, h, SimilarityConfig())
    p = build_problem(sim, g, h)
    cfg = BpConfig()
    st = init_state(p, cfg)
    bp_iterate(p, st, cfg)
    first = st.ops_last
    bp_iterate(p, st, cfg)
    assert st.ops_last == first > 0


def test_beats_or_ties_mwm_on_random_instances():
    # empirical quality bar: >= the linear-only baseline on at least 95% of
    # 200 seeded small instances with random scores
    rng = np.random.default_rng(11)
    wins = 0
    for _ in range(200):
        n_a, n_b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = generate_graph(n_a, edge_density=float(rng.uniform(0.1, 0.5)),
                           seed=int(rng.integers(0, 2**31)), name="A")
        b = generate_graph(n_b, edge_density=float(rng.uniform(0.1, 0.5)),
                           seed=int(rng.integers(0, 2**31)), name="B")
        total = n_a * n_b
        rows, cols = np.divmod(np.arange(total, dtype=np.int64), n_b)
        sim = SimilarityMatrix(n_a=n_a, n_b=n_b, rows=rows, cols=cols,
                               scores=rng.uniform(0.0, 1.0, size=total))
        p = build_problem(sim, a, b, alpha=0.75)
        mapping, _ = solve_nap(p, BpConfig(epsilon=0.5))
        v_bp = nap_objective(p, mapping)
        v_mwm = nap_objective(p, solve_mwm(node_weight_map(p)))
        if v_bp >= v_mwm - 1e-9:
            wins += 1
    assert wins >= 190, "solver matched the linear baseline on only %d/200" % wins
