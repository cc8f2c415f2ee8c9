"""Max-product belief propagation for the alignment problem.

Messages live on the candidate pairs and on the links between them:

* f[c] and g[c] carry matching pressure along the row and column of
  candidate c (one-to-one constraints on each side);
* h_uv[l] / h_vu[l] carry square support across link l in each direction.

All updates read the previous iteration's messages (Jacobi schedule).  A
candidate's belief p_hat combines its weight, penalties for not being the
best in its row and column, and clamped support from incident links.  It is
a plain field of the state, computed with the messages it belongs to: once
by init_state and once by every bp_iterate.  estimate_mode only rounds it:
the candidates with positive belief, made one-to-one by max_weight_matching.

Row/column maxima excluding the candidate itself are computed per segment
with a top-2 trick, so one iteration costs O(candidates + links).  The link
half of an update is one pass over blocks of at most LINK_BLOCK links: each
block gathers its new messages, damps them, takes their largest change and
clamps the next support inputs through small scratch buffers that stay in
cache, and writes the results in place into link arrays the state allocates
once.  One thread runs it all (BpConfig.threads, accepted for compatibility,
changes nothing), and nothing depends on dict ordering: runs are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .matchers import max_weight_matching
from .nap import Mapping, NapProblem, check_non_negative, nap_objective

MESSAGE_TOL = 1e-9  # max-norm change that counts as convergence
TIE_TOL = 1e-12     # message differences below this are treated as ties
LINK_BLOCK = 16_384  # links per block: the ~1.3 MB of link arrays a block touches fit in L2
MODE_STABLE_WINDOW = 20  # stop after this many iterations of an unchanged mode


@dataclass(frozen=True)
class BpConfig:
    epsilon: float = 0.5          # penalty for candidates beaten in their row/column
    max_iterations: int = 1000
    damping: float = 0.0          # blend factor toward the previous messages
    threads: int = 1              # accepted for compatibility: BP runs on one thread

    def __post_init__(self):
        check_non_negative(epsilon=self.epsilon, damping=self.damping)
        if self.damping >= 1.0:
            raise ValueError("damping must lie in [0, 1)")
        for name, value, low in (("max_iterations", self.max_iterations, 0),
                                 ("threads", self.threads, 1)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError("%s must be an integer >= %d, not %r" % (name, low, value))


class BpState:
    """Messages after `iteration` updates of one problem under one config.

    init_state binds a state to its problem and config for good.  p_hat is
    the belief of the current messages: it is computed with them, together
    with the terms the next update reads, so it never lags behind them.
    The link arrays are allocated here once and updated in place.
    """

    def __init__(self, problem: NapProblem, config: BpConfig):
        self.problem = problem
        self.config = config
        n_cand, n_link = problem.n_candidates, len(problem.link_u)
        self.f = np.zeros(n_cand)
        self.g = np.zeros(n_cand)
        self.h_uv = np.zeros(n_link)  # link message u -> v
        self.h_vu = np.zeros(n_link)  # link message v -> u
        self.iteration = 0
        self.delta = float("inf")
        self.ops_last = 0
        self._wn = problem.alpha * problem.node_weights
        # support into u and v, clip(wl + h_vu, 0, wl) and clip(wl + h_uv, 0, wl)
        # for wl = (link_count * 2*d_edge) * (1 - alpha): with zero messages, wl itself
        self._in_u = problem.link_count * (2.0 * problem.d_edge)
        self._in_u *= 1.0 - problem.alpha
        self._in_v = self._in_u.copy()
        self._starts_r, self._seg_r = _segments(problem.cand_rows)  # row order = storage order
        self._perm_c = np.lexsort((problem.cand_rows, problem.cand_cols))
        self._starts_c, self._seg_c = _segments(problem.cand_cols[self._perm_c])
        self._scratch = np.empty((3, min(LINK_BLOCK, max(n_link, 1))))  # new h_uv, new h_vu, temp
        _beliefs(self)  # sets p_hat and the terms of the next update

    def message_memory_bytes(self) -> int:
        return self.f.nbytes + self.g.nbytes + self.h_uv.nbytes + self.h_vu.nbytes


@dataclass
class BpDiagnostics:
    iterations: int
    converged: bool
    stop_reason: str
    best_objective: float
    objective_trace: List[float]
    ops_total: int
    message_memory_bytes: int
    seconds: float


def _segments(sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and per-element segment ids of equal runs in a sorted array."""
    if len(sorted_ids) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    boundary = np.empty(len(sorted_ids), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return np.flatnonzero(boundary), np.cumsum(boundary) - 1


def _segment_stats(values: np.ndarray, starts: np.ndarray,
                   seg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per element: max of its segment, and max of the segment excluding it.

    The exclusive max removes one occurrence of the maximum, so duplicated
    maxima still see the duplicate.  Empty exclusions come out as -inf.
    """
    m1 = np.maximum.reduceat(values, starts)
    full = m1[seg]
    pos = np.arange(len(values), dtype=np.int64)
    at_max = values == full
    first = np.minimum.reduceat(np.where(at_max, pos, len(values)), starts)
    trimmed = values.copy()
    trimmed[first] = -np.inf
    m2 = np.maximum.reduceat(trimmed, starts)
    excl = np.where(pos == first[seg], m2[seg], full)
    return full, excl


def _update_links(state: BpState) -> float:
    """Replace h_uv, h_vu and the support inputs in place; return the largest change of h.

    Each link reads only its own entries and the belief p_hat of the messages
    being replaced, so blocks can go in any order.  The arithmetic is the
    whole-array update's, element by element, so the bits are the same.
    """
    problem, p_hat, d = state.problem, state.p_hat, state.config.damping
    link_u, link_v, link_count = problem.link_u, problem.link_v, problem.link_count
    square_w, scale = 2.0 * problem.d_edge, 1.0 - problem.alpha
    h_uv, h_vu, in_u, in_v = state.h_uv, state.h_vu, state._in_u, state._in_v
    new_uv, new_vu, tmp = state._scratch
    n, block, largest = len(h_uv), len(tmp), 0.0
    for s in range(0, n, block):
        e = min(s + block, n)
        uv, vu, t = new_uv[:e - s], new_vu[:e - s], tmp[:e - s]
        # link indices are always in range, and "clip" writes out= unbuffered
        np.take(p_hat, link_u[s:e], out=uv, mode="clip")
        uv -= in_u[s:e]
        np.take(p_hat, link_v[s:e], out=vu, mode="clip")
        vu -= in_v[s:e]
        for new, old in ((uv, h_uv[s:e]), (vu, h_vu[s:e])):
            if d > 0.0:
                new *= 1.0 - d
                np.multiply(old, d, out=t)
                new += t
            np.subtract(new, old, out=t)
            np.abs(t, out=t)
            largest = max(largest, float(t.max()))
            old[...] = new
        np.multiply(link_count[s:e], square_w, out=t)  # the link weights
        t *= scale
        np.add(t, vu, out=in_u[s:e])
        np.clip(in_u[s:e], 0.0, t, out=in_u[s:e])
        np.add(t, uv, out=in_v[s:e])
        np.clip(in_v[s:e], 0.0, t, out=in_v[s:e])
    return largest


def _beliefs(state: BpState) -> None:
    """Set p_hat, and the terms the next update reads, from the current messages."""
    n_cand = state.problem.n_candidates
    f, g, perm_c, epsilon = state.f, state.g, state._perm_c, state.config.epsilon
    full_f, excl_f = _segment_stats(f, state._starts_r, state._seg_r)
    full_g_c, excl_g_c = _segment_stats(g[perm_c], state._starts_c, state._seg_c)
    full_g = np.empty_like(full_g_c)
    excl_g = np.empty_like(excl_g_c)
    full_g[perm_c] = full_g_c
    excl_g[perm_c] = excl_g_c

    phi = np.where(full_f - f < TIE_TOL, 0.0, epsilon)
    gamma = np.where(full_g - g < TIE_TOL, 0.0, epsilon)
    rexf = np.maximum(excl_f, 0.0)
    cexg = np.maximum(excl_g, 0.0)
    problem = state.problem
    support = (np.bincount(problem.link_u, weights=state._in_u, minlength=n_cand)
               + np.bincount(problem.link_v, weights=state._in_v, minlength=n_cand))

    wn = state._wn
    row_side = wn - rexf - phi
    state._f_next = wn - cexg - gamma + support
    state._g_next = row_side + support
    state.p_hat = row_side - cexg - gamma + support


def _check_problem(problem: NapProblem, state: BpState):
    if problem is not state.problem:
        raise ValueError("the state was initialised for another problem")


def init_state(problem: NapProblem, config: Optional[BpConfig] = None) -> BpState:
    """All-zero messages; the initial belief is weight plus full link support."""
    return BpState(problem, config or BpConfig())


def bp_iterate(problem: NapProblem, state: BpState,
               config: Optional[BpConfig] = None) -> BpState:
    """One Jacobi update of all messages, then the belief of the new ones.

    `problem` must be the state's own, and `config`, when given, equal to
    the one the state was initialised with.
    """
    _check_problem(problem, state)
    if config is not None and config != state.config:
        raise ValueError("the state was initialised with another config")
    n_cand, n_link = problem.n_candidates, len(state.h_uv)

    f_new, g_new = state._f_next, state._g_next
    d = state.config.damping
    if d > 0.0:
        f_new = (1.0 - d) * f_new + d * state.f
        g_new = (1.0 - d) * g_new + d * state.g
    delta = max((float(np.max(np.abs(new - old)))
                 for new, old in ((f_new, state.f), (g_new, state.g)) if len(new)),
                default=0.0)
    delta = max(delta, _update_links(state))  # reads p_hat before _beliefs replaces it
    state.f, state.g = f_new, g_new
    state.iteration += 1
    state.delta = delta
    # modelled work: the belief terms of the messages read (row and column
    # maxima 15n, link support 6L + n, sums 11n), the message fills (6n + 4L),
    # damping (4n + 4L) and the deltas (4n + 4L)
    state.ops_last = (36 * n_cand + (n_cand + 14 * n_link if n_link else 0)
                      + (4 * (n_cand + n_link) if d > 0.0 else 0))
    _beliefs(state)
    return state


def estimate_mode(problem: NapProblem, state: BpState) -> Mapping:
    """Round the current belief to a one-to-one mapping.

    Candidates with p_hat <= 0 are dropped; the rest are made one-to-one by
    an exact matching over the rows and columns they touch.
    """
    _check_problem(problem, state)
    positive = np.flatnonzero(state.p_hat > 0.0)
    return max_weight_matching(problem.cand_rows[positive], problem.cand_cols[positive],
                               state.p_hat[positive])


def solve_nap(problem: NapProblem,
              config: Optional[BpConfig] = None) -> Tuple[Mapping, BpDiagnostics]:
    """Run belief propagation, keeping the best mode seen at any iteration.

    The empty mapping (objective 0) is the initial incumbent, so the result
    never has a negative objective.  Step 0 scores the zero-message mode
    (weights plus optimistic link support, a strong matching on its own),
    step k the mode after k updates.  Stops early when messages change by
    less than MESSAGE_TOL in max-norm or the mode stays identical for
    MODE_STABLE_WINDOW consecutive iterations.
    """
    config = config or BpConfig()
    started = time.perf_counter()
    state = init_state(problem, config)
    best, best_objective = Mapping.empty(), 0.0
    trace: List[float] = []
    ops_total = 0
    stop_reason, converged = "iteration_limit", False
    previous_mode, stable = None, 0

    steps = config.max_iterations + 1 if problem.n_candidates and config.max_iterations else 0
    for step in range(steps):
        if step:
            bp_iterate(problem, state, config)
            ops_total += state.ops_last
        mode = estimate_mode(problem, state)
        objective = nap_objective(problem, mode)
        trace.append(objective)
        if objective > best_objective:
            best, best_objective = mode, objective
        if state.delta < MESSAGE_TOL:
            stop_reason, converged = "message_tolerance", True
            break
        if mode == previous_mode:
            stable += 1
            if stable >= MODE_STABLE_WINDOW:
                stop_reason, converged = "mode_stable", True
                break
        else:
            stable, previous_mode = 0, mode

    if problem.n_candidates == 0:
        converged, stop_reason = True, "empty"

    diagnostics = BpDiagnostics(
        iterations=state.iteration,
        converged=converged,
        stop_reason=stop_reason,
        best_objective=best_objective,
        objective_trace=trace,
        ops_total=ops_total,
        message_memory_bytes=state.message_memory_bytes(),
        seconds=time.perf_counter() - started,
    )
    return best, diagnostics
