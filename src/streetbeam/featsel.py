"""Floating feature-selection search (inclusion / conditional exclusion).

Works over any deterministic evaluator mapping a feature set to an
accuracy in [0, 1]. Sets are always handled in a canonical sorted order
(location first, then concept index) so history membership and tie
breaking are insertion-order independent. A search step hands all its
candidates to ``CachedEvaluator.many`` first, which can evaluate them on
forked worker processes; the step then reads every value from the cache
in canonical order, so the search is the same for any worker count.
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


def _run_worker(key):
    return float(_worker_fn(key))


class CachedEvaluator:
    """Caches a FeatureSet -> accuracy mapping keyed by canonical sets.

    ``many`` evaluates sets on up to ``workers`` forked processes when
    ``workers >= 2``; below that every evaluation runs in this process.
    """

    def __init__(self, fn, workers=1):
        self._fn = fn
        self._cache = {}
        self._workers = workers
        self.call_count = 0  # underlying-function invocations

    def __call__(self, features) -> float:
        key = canonical(features)
        if key not in self._cache:
            self._store(key, float(self._fn(key)))
        return self._cache[key]

    def _store(self, key, val):
        self.call_count += 1
        if not 0 <= val <= 1:
            raise EvaluatorError(f"evaluator returned {val} outside [0, 1] for {key}")
        self._cache[key] = val

    def many(self, sets) -> None:
        """Evaluate the sets not cached yet on worker processes.

        With fewer than two workers or two such sets this does nothing, and
        ``__call__`` evaluates each set when it is first read. Otherwise
        the sets run on forked processes, which inherit ``fn`` and its data
        (spawned ones would need both pickled), so only the feature tuples
        and the floats are pickled; the pool forks all its workers before
        it starts its own thread. The results are stored in the given
        order, and the first failing set's error is raised, so the cache,
        ``call_count`` and the error are those of ``__call__`` on each set
        in turn. Every worker is joined before this returns or raises.
        """
        pending = list(dict.fromkeys(
            key for key in map(canonical, sets) if key not in self._cache))
        if self._workers < 2 or len(pending) < 2:
            return
        # imported here, so that commands which never select do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(min(self._workers, len(pending)),
                                     mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker,
                                     initargs=(self._fn, os.getpid())) as pool:
                for key, val in zip(pending, pool.map(_run_worker, pending)):
                    self._store(key, val)
        except BrokenProcessPool as exc:
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


def inclusion_step(state: FsState, universal, evaluator) -> bool:
    """Add the most significant missing feature; ties to smallest id.

    Returns False when no feature is left to add.
    """
    remaining = [f for f in canonical(universal) if f not in state.current]
    if not remaining:
        return False
    evaluator.many(canonical(state.current + (f,)) for f in remaining)
    best_feat, best_acc = None, -1.0
    for f in remaining:  # canonical order makes argmax ties deterministic
        cand = canonical(state.current + (f,))
        acc = evaluator(cand)
        state.log_step("inclusion", cand, acc, False)
        if acc > best_acc:
            best_feat, best_acc = f, acc
    state.history.add(state.current)
    state.current = canonical(state.current + (best_feat,))
    state.iteration += 1
    state.log_step("inclusion", state.current, best_acc, True)
    return True


def exclusion_step(state: FsState, evaluator) -> bool:
    """Remove the feature whose removal most improves accuracy, if any.

    Pinned features are never candidates; sets of size < 2 are never
    shrunk (removing the last feature would evaluate the empty set).
    Returns True when a feature was removed.
    """
    removable = [f for f in state.current if f not in state.pinned]
    if not removable or len(state.current) < 2:
        return False
    evaluator.many([state.current] + [canonical(x for x in state.current if x != f)
                                      for f in removable])
    base = evaluator(state.current)
    best_feat, best_acc = None, base
    for f in removable:
        cand = canonical(x for x in state.current if x != f)
        acc = evaluator(cand)
        state.log_step("exclusion", cand, acc, False)
        if acc > best_acc:
            best_feat, best_acc = f, acc
    if best_feat is None:
        return False
    state.current = canonical(x for x in state.current if x != best_feat)
    state.iteration += 1
    state.log_step("exclusion", state.current, best_acc, True)
    return True


def sffs(universal, evaluator, pinned=(), v_max=None):
    """Floating search: alternate inclusion with repeated conditional
    exclusion until the current set reappears in history (or hits v_max).

    ``evaluator`` is wrapped in a cache if it is not one already. Returns
    the selected set and the search state, whose trace records every step.
    """
    universal = canonical(universal)
    pinned = canonical(pinned)
    if any(p not in universal for p in pinned):
        raise ValueError("pinned features must be a subset of the universal set")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(evaluator)

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
