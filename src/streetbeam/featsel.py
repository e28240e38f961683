"""Floating feature-selection search (inclusion / conditional exclusion).

Works over any deterministic evaluator mapping a feature set to an
accuracy in [0, 1]. Sets are always handled in a canonical sorted order
(location first, then concept index) so history membership and tie
breaking are insertion-order independent. Also provides an exhaustive
subset search used as a verification oracle.
"""

import itertools
import json
import logging
from dataclasses import dataclass, field

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


class CachedEvaluator:
    """Caches a FeatureSet -> accuracy mapping keyed by canonical sets."""

    def __init__(self, fn):
        self._fn = fn
        self._cache = {}
        self.call_count = 0  # underlying-function invocations

    def __call__(self, features) -> float:
        key = canonical(features)
        if key not in self._cache:
            val = float(self._fn(key))
            self.call_count += 1
            if not 0 <= val <= 1:
                raise EvaluatorError(f"evaluator returned {val} outside [0, 1] for {key}")
            self._cache[key] = val
        return self._cache[key]


@dataclass
class FsState:
    current: tuple                 # canonical feature set
    pinned: tuple                  # always kept in current
    history: set = field(default_factory=set)
    iteration: int = 0
    v_max: int | None = None
    trace: list = field(default_factory=list)

    def log_step(self, step, candidate, accuracy, chosen):
        self.trace.append({
            "iteration": self.iteration,
            "step": step,
            "candidate": list(candidate),
            "accuracy": accuracy,
            "chosen": chosen,
        })


class SearchDone(Exception):
    """Inclusion step signals termination."""


def inclusion_step(state: FsState, universal, evaluator) -> None:
    """Add the most significant missing feature; ties to smallest id."""
    remaining = [f for f in canonical(universal) if f not in state.current]
    if not remaining:
        raise SearchDone
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


def exclusion_step(state: FsState, evaluator) -> bool:
    """Remove the feature whose removal most improves accuracy, if any.

    Pinned features are never candidates; sets of size < 2 are never
    shrunk (removing the last feature would evaluate the empty set).
    Returns True when a feature was removed.
    """
    removable = [f for f in state.current if f not in state.pinned]
    if not removable or len(state.current) < 2:
        return False
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


def sffs(universal, evaluator, pinned=(), v_max=None, return_state=False):
    """Floating search: alternate inclusion with repeated conditional
    exclusion until the current set reappears in history (or hits v_max).

    ``evaluator`` is wrapped in a cache if it is not one already.
    """
    universal = canonical(universal)
    pinned = canonical(pinned)
    if any(p not in universal for p in pinned):
        raise ValueError("pinned features must be a subset of the universal set")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(evaluator)

    state = FsState(current=pinned, pinned=pinned, v_max=v_max)
    while True:
        if state.current in state.history:
            break
        if v_max is not None and len(state.current) >= v_max:
            break
        try:
            inclusion_step(state, universal, evaluator)
        except SearchDone:
            break
        while exclusion_step(state, evaluator):
            pass
    log.info("sffs: %d evaluator calls, selected %s", evaluator.call_count, state.current)
    if return_state:
        return state.current, state
    return state.current


def brute_force_best(universal, evaluator, pinned=(), v_max=None, max_size=20):
    """Exact argmax over all subsets containing ``pinned``; ties go to the
    lexicographically smallest canonical set."""
    universal = canonical(universal)
    pinned = canonical(pinned)
    free = [f for f in universal if f not in pinned]
    if len(free) > max_size:
        raise ValueError(f"universe too large for exhaustive search (> {max_size})")
    if not isinstance(evaluator, CachedEvaluator):
        evaluator = CachedEvaluator(evaluator)

    best_set, best_key, best_acc = None, None, -1.0
    for r in range(len(free) + 1):
        for combo in itertools.combinations(free, r):
            cand = canonical(pinned + combo)
            if v_max is not None and len(cand) > v_max:
                continue
            acc = evaluator(cand)
            # tie rule: fewest features first, then lexicographic canonical order
            ckey = (len(cand), tuple(feature_key(f) for f in cand))
            if acc > best_acc or (acc == best_acc and ckey < best_key):
                best_set, best_key, best_acc = cand, ckey, acc
    return best_set


def write_trace(path, state: FsState):
    """Search trace as line-delimited JSON."""
    with open(path, "w") as fh:
        for rec in state.trace:
            fh.write(json.dumps(rec) + "\n")
