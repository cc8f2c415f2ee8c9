"""Max-product belief propagation for the alignment problem.

Messages live on the candidate pairs and on the links between them:

* f[c] and g[c] carry matching pressure along the row and column of
  candidate c (one-to-one constraints on each side);
* h_uv[l] / h_vu[l] carry square support across link l in each direction.

All updates read the previous iteration's messages (Jacobi schedule).  A
candidate's belief p_hat combines its weight, penalties for not being the
best in its row and column, and clamped support from incident links.  It is
a plain field of the state, computed with the messages it belongs to: once
by init_state and once by every bp_iterate.  Rounding it gives the mode:
the candidates with positive belief, made one-to-one.  A positive pair alone
in its row and column is taken directly, and the matching kernel's dense
assignment runs over the conflicted rows and columns only.  solve_nap keeps
each mode as ascending candidate positions, scores it from them with
nap.objective_at and builds one Mapping, from the best, at the end;
estimate_mode is the same rounding as a Mapping.

Row/column maxima excluding the candidate itself are computed per segment
with a top-2 trick, so one iteration costs O(candidates + links).  A state
keeps two arrays per link, h_uv and h_vu.  The link half of an update is
one pass over blocks of at most LINK_BLOCK links, through scratch buffers
that stay in cache: each block rebuilds its clamped support inputs from
the old messages, gathers, damps and diffs the new ones and writes them in
place, then sums their support into two candidate-length arrays.  The
candidate half writes into buffers the state owns, so an iteration
allocates no array the length of the candidates or links.  One thread runs
it all (BpConfig.threads, accepted for compatibility, changes nothing), and
nothing depends on dict ordering: runs are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .matchers import assign
from .graphs import check_range
from .nap import Mapping, NapProblem, objective_at

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
        check_range("epsilon", self.epsilon)
        check_range("damping", self.damping, high=1, open_high=True)
        check_range("max_iterations", self.max_iterations, integer=True)
        check_range("threads", self.threads, low=1, integer=True)


class BpState:
    """Messages after `iteration` updates of one problem under one config.

    init_state binds a state to its problem and config for good.  p_hat is
    the belief of the current messages: it is computed with them, together
    with the terms the next update reads, so it never lags behind them.
    Every array is allocated here once and then written in place.
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
        self._starts_r, self._seg_r = _segments(problem.cand_rows)  # row order = storage order
        self._perm_c = np.argsort(problem.cand_cols, kind="stable")  # ties in row order
        self._starts_c, self._seg_c = _segments(problem.cand_cols[self._perm_c])
        self._pos = np.arange(n_cand, dtype=np.int64)
        self._mask = np.empty(n_cand, dtype=bool)
        # the next f and g, the belief, and the support summed at each link's u and v end
        self._f_next, self._g_next, self.p_hat, self._support_u, self._support_v = \
            np.zeros((5, n_cand))
        # per block: new h_uv, new h_vu, link weights, temp
        self._scratch = np.empty((4, min(LINK_BLOCK, max(n_link, 1))))
        _update_links(self, update=False)  # the support of the zero messages
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
    mode_seconds: float   # of seconds, rounding beliefs to modes, summed over steps
    score_seconds: float  # of seconds, scoring the modes, summed over steps


def _segments(sorted_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and per-element segment ids of equal runs in a sorted array."""
    if len(sorted_ids) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    boundary = np.empty(len(sorted_ids), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_ids[1:] != sorted_ids[:-1]
    return np.flatnonzero(boundary), np.cumsum(boundary) - 1


def _segment_stats(state: BpState, values: np.ndarray, starts: np.ndarray, seg: np.ndarray,
                   full: np.ndarray, excl: np.ndarray) -> None:
    """Write per element the max of its segment to full, and the max excluding it to excl.

    The exclusive max removes one occurrence of the maximum, so duplicated
    maxima still see the duplicate: excl is full, except at the first
    maximum of each segment, which gets the max of the rest.  Empty
    exclusions come out as -inf.  excl doubles as the scratch space.
    """
    np.take(np.maximum.reduceat(values, starts), seg, out=full, mode="clip")
    np.equal(values, full, out=state._mask)
    position = excl.view(np.int64)
    position.fill(len(values))
    np.copyto(position, state._pos, where=state._mask)
    first = np.minimum.reduceat(position, starts)
    np.copyto(excl, values)
    excl[first] = -np.inf
    second = np.maximum.reduceat(excl, starts)
    np.copyto(excl, full)
    excl[first] = second


def _tie_penalty(full: np.ndarray, values: np.ndarray, epsilon: float, mask: np.ndarray) -> None:
    """Overwrite full with 0 where values ties its segment's max, else epsilon."""
    np.subtract(full, values, out=full)
    np.less(full, TIE_TOL, out=mask)
    full.fill(epsilon)
    np.copyto(full, 0.0, where=mask)


def _clamped(wl: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """clip(wl + h, 0, wl): the support a link message passes on, into out.

    np.maximum then np.minimum give np.clip's bits, at a third of its cost
    when the bounds are arrays.
    """
    np.add(wl, h, out=out)
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, wl, out=out)


def _damped_change(new: np.ndarray, old: np.ndarray, d: float, tmp: np.ndarray) -> float:
    """Blend new toward old by the damping d, in place; return the largest |new - old|."""
    if d > 0.0:
        new *= 1.0 - d
        np.multiply(old, d, out=tmp)
        new += tmp
    np.subtract(new, old, out=tmp)
    np.abs(tmp, out=tmp)
    return float(tmp.max()) if len(tmp) else 0.0


def _update_links(state: BpState, update: bool = True) -> float:
    """Replace h_uv and h_vu in place and sum their support; return the largest change of h.

    A link supports u with clip(wl + h_vu, 0, wl) and v with clip(wl + h_uv,
    0, wl), for wl = (link_count * 2*d_edge) * (1 - alpha).  Each link reads
    only its own entries and p_hat, so blocks can go in any order; the
    arithmetic is the whole-array update's, element by element.  np.add.at
    sums per candidate in link order, as np.bincount does, so the sums have
    its bits.  With update False, only sums the current messages' support.
    """
    problem, p_hat, d = state.problem, state.p_hat, state.config.damping
    link_u, link_v, link_count = problem.link_u, problem.link_v, problem.link_count
    square_w, scale = problem.square_weight, 1.0 - problem.alpha
    h_uv, h_vu, support_u, support_v = state.h_uv, state.h_vu, state._support_u, state._support_v
    support_u.fill(0.0)
    support_v.fill(0.0)
    new_uv, new_vu, weights, tmp = state._scratch
    n, block, largest = len(h_uv), len(tmp), 0.0
    for s in range(0, n, block):
        e = min(s + block, n)
        uv, vu, wl, t = new_uv[:e - s], new_vu[:e - s], weights[:e - s], tmp[:e - s]
        u, v, old_uv, old_vu = link_u[s:e], link_v[s:e], h_uv[s:e], h_vu[s:e]
        np.multiply(link_count[s:e], square_w, out=wl)
        wl *= scale
        if update:
            # link indices are always in range, and "clip" writes out= unbuffered
            np.take(p_hat, u, out=uv, mode="clip")
            uv -= _clamped(wl, old_vu, t)
            np.take(p_hat, v, out=vu, mode="clip")
            vu -= _clamped(wl, old_uv, t)
            largest = max(largest, _damped_change(uv, old_uv, d, t),
                          _damped_change(vu, old_vu, d, t))
            old_uv[...], old_vu[...] = uv, vu
        np.add.at(support_u, u, _clamped(wl, old_vu, t))
        np.add.at(support_v, v, _clamped(wl, old_uv, t))
    return largest


def _beliefs(state: BpState) -> None:
    """Set p_hat, and the terms the next update reads, from the messages and their support.

    Every term is written into one of four candidate buffers, which then
    trade places, so no candidate-length array is allocated.
    """
    f, g, epsilon, wn, mask = state.f, state.g, state.config.epsilon, state._wn, state._mask
    perm_c, support = state._perm_c, state._support_u
    a, b, c, d = state._f_next, state._g_next, state.p_hat, state._support_v
    support += d  # support into u plus support into v
    _segment_stats(state, f, state._starts_r, state._seg_r, c, b)
    _tie_penalty(c, f, epsilon, mask)        # c = phi
    np.maximum(b, 0.0, out=b)                # b = rexf
    np.subtract(wn, b, out=b)
    b -= c                                   # b = wn - rexf - phi, the row side
    np.take(g, perm_c, out=c, mode="clip")   # c = g in column order
    _segment_stats(state, c, state._starts_c, state._seg_c, a, d)
    _tie_penalty(a, c, epsilon, mask)        # a = gamma in column order
    np.maximum(d, 0.0, out=d)                # d = cexg in column order
    c[perm_c] = a                            # c = gamma
    a[perm_c] = d                            # a = cexg
    np.subtract(b, a, out=d)
    d -= c
    d += support                             # d = p_hat
    np.subtract(wn, a, out=a)
    a -= c
    a += support                             # a = f_next
    b += support                             # b = g_next
    state._f_next, state._g_next, state.p_hat, state._support_v = a, b, d, c


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

    f_new, g_new, f_old, g_old = state._f_next, state._g_next, state.f, state.g
    tmp, d = state._support_u, state.config.damping  # the link pass refills the support
    delta = max(_damped_change(f_new, f_old, d, tmp), _damped_change(g_new, g_old, d, tmp),
                _update_links(state))  # reads p_hat before _beliefs replaces it
    state.f, state.g, state._f_next, state._g_next = f_new, g_new, f_old, g_old
    state.iteration += 1
    state.delta = delta
    # modelled work: the belief terms of the messages read (row and column
    # maxima 15n, link support 6L + n, sums 11n), the message fills (6n + 4L),
    # damping (4n + 4L) and the deltas (4n + 4L)
    state.ops_last = (36 * n_cand + (n_cand + 14 * n_link if n_link else 0)
                      + (4 * (n_cand + n_link) if d > 0.0 else 0))
    _beliefs(state)
    return state


def _mode_positions(problem: NapProblem, state: BpState) -> np.ndarray:
    """Ascending candidate positions of the mode: the positive beliefs, made one-to-one.

    A positive pair alone in its row and its column is in every maximum-weight
    matching, so it is taken directly.  The kernel's assignment runs once, over
    the rest: a matrix over the conflicted rows and columns only.
    """
    rows, cols, belief = problem.cand_rows, problem.cand_cols, state.p_hat
    taken = None  # positions of the positive beliefs; None when that is every candidate
    positive = belief > 0.0
    if not positive.all():  # else the arrays themselves, as at step 0 of most problems
        taken = np.flatnonzero(positive)
        rows, cols, belief = rows[taken], cols[taken], belief[taken]
    lone = (np.bincount(rows) == 1)[rows]
    lone &= (np.bincount(cols) == 1)[cols]
    lone_at = np.flatnonzero(lone)
    if taken is not None:
        lone_at = taken[lone_at]
    if len(lone_at) == len(rows):
        return lone_at
    if len(lone_at):
        conflicted = ~lone
        rows, cols, belief = rows[conflicted], cols[conflicted], belief[conflicted]
    positions = np.concatenate((lone_at, problem.sim.lookup(*assign(rows, cols, belief))))
    positions.sort()
    return positions


def _mapping_at(problem: NapProblem, positions: np.ndarray) -> Mapping:
    return Mapping.from_pairs(zip(problem.cand_rows[positions].tolist(),
                                  problem.cand_cols[positions].tolist()))


def estimate_mode(problem: NapProblem, state: BpState) -> Mapping:
    """Round the current belief to a one-to-one mapping.

    Candidates with p_hat <= 0 are dropped; the rest are made one-to-one by
    an exact matching over the rows and columns where they conflict.
    """
    _check_problem(problem, state)
    return _mapping_at(problem, _mode_positions(problem, state))


def solve_nap(problem: NapProblem,
              config: Optional[BpConfig] = None) -> Tuple[Mapping, BpDiagnostics]:
    """Run belief propagation, keeping the best mode seen at any iteration.

    The empty mapping (objective 0) is the initial incumbent, so the result
    never has a negative objective.  Step 0 scores the zero-message mode
    (weights plus optimistic link support, a strong matching on its own),
    step k the mode after k updates.  Modes are rounded, scored and compared
    as candidate positions, and the best one becomes a Mapping at the end.
    Stops early when messages change by less than MESSAGE_TOL in max-norm or
    the mode stays identical for MODE_STABLE_WINDOW consecutive iterations.
    """
    config = config or BpConfig()
    started = time.perf_counter()
    state = init_state(problem, config)
    best, best_objective = np.empty(0, dtype=np.int64), 0.0
    trace: List[float] = []
    ops_total = 0
    mode_seconds = score_seconds = 0.0
    stop_reason, converged = "iteration_limit", False
    previous_mode, stable = None, 0

    steps = config.max_iterations + 1 if problem.n_candidates and config.max_iterations else 0
    for step in range(steps):
        if step:
            bp_iterate(problem, state, config)
            ops_total += state.ops_last
        rounding = time.perf_counter()
        mode = _mode_positions(problem, state)
        scoring = time.perf_counter()
        objective = objective_at(problem, mode)
        mode_seconds += scoring - rounding
        score_seconds += time.perf_counter() - scoring
        trace.append(objective)
        if objective > best_objective:
            best, best_objective = mode, objective
        if state.delta < MESSAGE_TOL:
            stop_reason, converged = "message_tolerance", True
            break
        if previous_mode is not None and np.array_equal(mode, previous_mode):
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
        mode_seconds=mode_seconds,
        score_seconds=score_seconds,
    )
    return _mapping_at(problem, best), diagnostics
