"""Floating feature-selection search (inclusion / conditional exclusion).

Works over any deterministic evaluator mapping a feature set to an
accuracy in [0, 1]. Sets are always handled in a canonical sorted order
(location first, then concept index) so history membership and tie
breaking are insertion-order independent. A search step hands all its
candidates to ``CachedEvaluator.many`` first, which evaluates them as
stacks of same-size sets, on forked worker processes or in this one; the
step then reads every value from the cache in canonical order, so the
search is the same for any worker count and stacking. The workers are
forked at the search's first parallel step and serve every later one
until the evaluator is closed.
"""

import ctypes
import json
import logging
import os
import signal
from dataclasses import dataclass, field

from . import blas
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
    blas.set_threads(1)  # the pool runs one worker per CPU


def _evaluate(fn, keys):
    """The values of ``keys`` in order, up to the first whose evaluation
    fails, then that failure's exception. A stack that raises is evaluated
    again set by set, so the failure is the one the first failing set
    raises alone."""
    if len(keys) > 1:
        try:
            return [float(v) for v in fn(keys)]
        except Exception as exc:
            log.warning("a stack of %d sets failed (%r); evaluating each set alone",
                        len(keys), exc)
    values = []
    for key in keys:
        try:
            values.append(float(fn([key])[0]))
        except Exception as exc:
            return values + [exc]
    return values


def _run_worker(keys):
    return _evaluate(_worker_fn, keys)


class CachedEvaluator:
    """Caches a FeatureSet -> accuracy mapping keyed by canonical sets.

    ``fn`` maps a list of canonical sets of one size, a stack, to their
    values in order; each value must not depend on the rest of the stack.
    ``many`` evaluates stacks of at most ``max_stack`` sets (no bound if
    None) on ``workers`` forked processes when ``workers >= 2``; below that
    every evaluation runs in this process. The workers are forked at the
    first ``many`` that has two stacks or more and live until ``close``,
    which a ``with`` block calls on leaving.
    """

    def __init__(self, fn, workers=1, max_stack=None):
        self._fn = fn
        self._cache = {}
        self._workers = workers
        self._max_stack = max_stack
        self._pool = None  # the worker pool, from the first parallel ``many``
        self.call_count = 0  # underlying-function invocations

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        """Shut the worker pool down, if there is one: stacks not started
        yet are dropped, and every worker is joined."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __call__(self, features) -> float:
        key = canonical(features)
        if key not in self._cache:
            self._store(key, float(self._fn([key])[0]))
        return self._cache[key]

    def _store(self, key, val):
        self.call_count += 1
        if not 0 <= val <= 1:
            raise EvaluatorError(f"evaluator returned {val} outside [0, 1] for {key}")
        self._cache[key] = val

    def _stacks(self, pending):
        """``pending`` split into stacks: the sets of each size, in order,
        dealt into one contiguous run per worker, or into more runs where
        those would exceed ``max_stack``."""
        by_size = {}
        for key in pending:
            by_size.setdefault(len(key), []).append(key)
        stacks = []
        for group in by_size.values():
            n = min(self._workers, len(group))
            if self._max_stack is not None:
                n = max(n, -(-len(group) // self._max_stack))
            bounds = [len(group) * i // n for i in range(n + 1)]
            stacks += [group[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return stacks

    def many(self, sets) -> None:
        """Evaluate the sets not cached yet, as stacks of same-size sets.

        Each worker gets one stack of each set size, or stacks of
        ``max_stack`` sets, which the pool hands to whichever worker is free.
        With two workers or more and two stacks or more, the stacks run on
        the evaluator's forked processes, which inherit ``fn`` and its data
        as they were at the first such call (spawned ones would need both
        pickled), so only the feature tuples, the floats and a failure's
        exception are pickled; the pool forks all its workers before it
        starts its own thread, and keeps them for later calls. Otherwise the
        stacks run in this process. The results are stored in the given
        order, and the first failing set's error is raised, so the cache,
        ``call_count`` and the error are those of ``__call__`` on each set
        in turn. A worker that dies raises ``EvaluatorError`` after every
        worker is joined.
        """
        pending = list(dict.fromkeys(
            key for key in map(canonical, sets) if key not in self._cache))
        stacks = self._stacks(pending)
        if self._workers < 2 or len(stacks) < 2:
            results = [_evaluate(self._fn, keys) for keys in stacks]
        else:
            results = self._run_pool(stacks)
        outcome = {}
        for keys, values in zip(stacks, results):
            outcome.update(zip(keys, values))
        # a stack holds its sets in the given order, so a set evaluated
        # after a failure in its stack comes after that failure here
        for key in pending:
            if isinstance(outcome[key], Exception):
                raise outcome[key]
            self._store(key, outcome[key])

    def _run_pool(self, stacks):
        # imported here, so that commands which never select do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self._pool is None:
            self._pool = ProcessPoolExecutor(self._workers,
                                             mp_context=multiprocessing.get_context("fork"),
                                             initializer=_init_worker,
                                             initargs=(self._fn, os.getpid()))
        try:
            return list(self._pool.map(_run_worker, stacks))
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

    ``evaluator`` is wrapped in a cache if it is not one already; a plain
    function then evaluates one set at a time. Returns the selected set and
    the search state, whose trace records every step.
    """
    universal = canonical(universal)
    pinned = canonical(pinned)
    if any(p not in universal for p in pinned):
        raise ValueError("pinned features must be a subset of the universal set")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(lambda keys, fn=evaluator: [fn(k) for k in keys])

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
