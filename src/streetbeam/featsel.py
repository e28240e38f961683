"""Floating feature-selection search (inclusion / conditional exclusion).

Works over a ``CachedEvaluator``, a cache of a deterministic mapping from
a feature set to an accuracy in [0, 1]. Sets are always handled in a
canonical sorted order (location first, then concept index) so history
membership and tie breaking are insertion-order independent. A search
step hands all its candidates to ``CachedEvaluator.many`` first, which
evaluates them in one batch per worker, on forked worker processes or in
this one; the step then reads every value from the cache in canonical
order, so the search is the same for any worker count and batching. The
workers are forked at the search's first step and serve every later one
until the evaluator is closed.
"""

import ctypes
import json
import logging
import os
import signal
from dataclasses import dataclass, field

from . import lanes
from .semantics import CONCEPT_NAMES

log = logging.getLogger(__name__)

LOCATION = "location"
UNIVERSAL_FEATURES = (LOCATION,) + CONCEPT_NAMES  # V_uni = 21

_CONCEPT_RANK = {name: i for i, name in enumerate(CONCEPT_NAMES)}


def feature_key(feat: str):
    """Canonical total order: location first, then concept index."""
    if feat == LOCATION:
        return (0, 0, "")
    if feat in _CONCEPT_RANK:
        return (1, _CONCEPT_RANK[feat], "")
    return (2, 0, feat)  # generic ids (used by table evaluators in tests)


def canonical(features) -> tuple:
    """Sorted, de-duplicated tuple representation of a feature set."""
    return tuple(sorted(set(features), key=feature_key))


class EvaluatorError(RuntimeError):
    pass


_worker_fn = None  # the evaluated function, in a forked worker process


def _init_worker(fn, parent_pid):
    """Set up a forked worker; it is killed when its parent dies.

    Without that, a parent killed without unwinding (SIGKILL, ``os._exit``)
    leaves its workers blocked forever on the pool's queue. The parent-death
    signal covers deaths after it is set, the pid check those before it.
    """
    global _worker_fn
    _worker_fn = fn
    prctl = getattr(ctypes.CDLL(None), "prctl", None)  # Linux only
    if prctl is not None:
        prctl(1, ctypes.c_ulong(signal.SIGKILL))  # PR_SET_PDEATHSIG
    if os.getppid() != parent_pid:
        os._exit(1)
    lanes.set_lanes(1)


def _run_worker(keys):
    return _worker_fn(keys)


class CachedEvaluator:
    """Caches a FeatureSet -> accuracy mapping keyed by canonical sets.

    ``fn`` maps a list of canonical sets, a batch, to their values in
    order; each value must not depend on the rest of the batch. Every set
    is evaluated through ``many``: on ``workers`` forked processes when
    ``workers >= 2``, below that in this process. The workers are forked
    at the first evaluation and live until ``close``, which a ``with``
    block calls on leaving.
    """

    def __init__(self, fn, workers=1):
        self._fn = fn
        self._cache = {}
        self._workers = workers
        self._pool = None  # the worker pool, from the first pooled ``many``
        self.call_count = 0  # underlying-function invocations

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        """Shut the worker pool down, if there is one: batches not started
        yet are dropped, and every worker is joined."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __call__(self, features) -> float:
        key = canonical(features)
        self.many([key])
        return self._cache[key]

    def many(self, sets) -> None:
        """Evaluate the sets not cached yet, dealt in the given order into
        one contiguous batch per worker.

        With two workers or more, every batch runs on the evaluator's forked
        processes, which inherit ``fn`` and its data as they were at the
        first evaluation (spawned ones would need both pickled), so only the
        feature tuples, the floats and a failure's exception are pickled;
        the ``streetbeam.lanes`` helper thread is joined before the pool
        forks all its workers, which it does before it starts its own
        thread, and the pool keeps them for later calls. A worker runs its
        lanes' work on one lane and inherits this process's BLAS thread
        count, which it does not set (``streetbeam.blas``). With one worker
        the batch runs in this process. A batch whose ``fn`` raises fails
        the call with that exception, and a value outside [0, 1] with
        ``EvaluatorError``; a failed call caches nothing and leaves
        ``call_count`` as it was. A worker that dies raises
        ``EvaluatorError`` after every worker is joined.
        """
        pending = list(dict.fromkeys(
            key for key in map(canonical, sets) if key not in self._cache))
        if not pending:
            return
        n = min(self._workers, len(pending))
        bounds = [len(pending) * i // n for i in range(n + 1)]
        batches = [pending[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        if self._workers < 2:
            results = [self._fn(keys) for keys in batches]
        else:
            results = self._run_pool(batches)
        values = [float(v) for batch in results for v in batch]
        for key, val in zip(pending, values):
            if not 0 <= val <= 1:
                raise EvaluatorError(f"evaluator returned {val} outside [0, 1] for {key}")
        self._cache.update(zip(pending, values))
        self.call_count += len(pending)

    def _run_pool(self, batches):
        # imported here, so that commands which never select do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self._pool is None:
            lanes.join_helper()  # so that no thread is alive at the fork
            self._pool = ProcessPoolExecutor(self._workers,
                                             mp_context=multiprocessing.get_context("fork"),
                                             initializer=_init_worker,
                                             initargs=(self._fn, os.getpid()))
        try:
            return list(self._pool.map(_run_worker, batches))
        except BrokenProcessPool as exc:
            self.close()
            raise EvaluatorError(f"a feature-set evaluation worker died: {exc}") from exc


@dataclass
class FsState:
    current: tuple                 # canonical feature set
    pinned: tuple                  # always kept in current
    history: set = field(default_factory=set)
    iteration: int = 0
    trace: list = field(default_factory=list)

    def log_step(self, step, candidate, accuracy, chosen):
        self.trace.append({
            "iteration": self.iteration,
            "step": step,
            "candidate": list(candidate),
            "accuracy": accuracy,
            "chosen": chosen,
        })


def _take_best(state: FsState, step, cands, evaluator, base=None) -> bool:
    """Move to the best of the candidate sets ``cands``, given in canonical
    order of the feature each adds or removes; returns whether it moved.

    All candidates (and ``base``) go to ``evaluator.many`` first, then each
    is logged as a ``step`` entry. The strict ``>`` keeps the first of equal
    accuracies, so ties go to the smallest id. With ``base`` given, the best
    candidate must beat its accuracy.
    """
    evaluator.many(cands if base is None else [base, *cands])
    best, best_acc = None, -1.0 if base is None else evaluator(base)
    for cand in cands:
        acc = evaluator(cand)
        state.log_step(step, cand, acc, False)
        if acc > best_acc:
            best, best_acc = cand, acc
    if best is None:
        return False
    state.current = best
    state.iteration += 1
    state.log_step(step, best, best_acc, True)
    return True


def inclusion_step(state: FsState, universal, evaluator) -> bool:
    """Add the most significant missing feature; ties to smallest id.

    Returns False when no feature is left to add.
    """
    remaining = [f for f in canonical(universal) if f not in state.current]
    if not remaining:
        return False
    state.history.add(state.current)
    return _take_best(state, "inclusion", [canonical(state.current + (f,)) for f in remaining],
                      evaluator)


def exclusion_step(state: FsState, evaluator) -> bool:
    """Remove the feature whose removal most improves accuracy, if any.

    Pinned features are never candidates; sets of size < 2 are never
    shrunk (removing the last feature would evaluate the empty set).
    Returns True when a feature was removed.
    """
    removable = [f for f in state.current if f not in state.pinned]
    if not removable or len(state.current) < 2:
        return False
    return _take_best(state, "exclusion",
                      [canonical(x for x in state.current if x != f) for f in removable],
                      evaluator, base=state.current)


def sffs(universal, evaluator, pinned=(), v_max=None):
    """Floating search: alternate inclusion with repeated conditional
    exclusion until the current set reappears in history (or hits v_max).

    ``evaluator`` is a ``CachedEvaluator``. Returns the selected set and
    the search state, whose trace records every step.
    """
    universal = canonical(universal)
    pinned = canonical(pinned)
    if any(p not in universal for p in pinned):
        raise ValueError("pinned features must be a subset of the universal set")

    state = FsState(current=pinned, pinned=pinned)
    while (state.current not in state.history
           and (v_max is None or len(state.current) < v_max)
           and inclusion_step(state, universal, evaluator)):
        while exclusion_step(state, evaluator):
            pass
    log.info("sffs: %d evaluator calls, selected %s", evaluator.call_count, state.current)
    return state.current, state


def write_trace(path, state: FsState):
    """Search trace as line-delimited JSON."""
    with open(path, "w") as fh:
        for rec in state.trace:
            fh.write(json.dumps(rec) + "\n")
