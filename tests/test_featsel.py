import itertools
import json
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from oracles import brute_force_best, per_set
from streetbeam import lanes
from streetbeam.featsel import (LOCATION, UNIVERSAL_FEATURES, CachedEvaluator,
                                EvaluatorError, FsState, canonical,
                                exclusion_step, inclusion_step, sffs,
                                write_trace)


def table_eval(table, default=0.0):
    return lambda feats: table.get(canonical(feats), default)


def greedy_forward(universal, evaluator, pinned=()):
    """Plain forward selection: inclusion only, stop when no improvement."""
    current = canonical(pinned)
    best = evaluator(current) if current else 0.0
    while True:
        remaining = [f for f in canonical(universal) if f not in current]
        if not remaining:
            return current
        cands = [(evaluator(canonical(current + (f,))), f) for f in remaining]
        acc, feat = max(cands, key=lambda t: (t[0], -remaining.index(t[1])))
        # argmax with ties to smallest id (remaining is already canonical)
        for a, f in cands:
            if a == acc:
                feat = f
                break
        if acc <= best:
            return current
        best, current = acc, canonical(current + (feat,))


def test_canonical_order():
    assert canonical(("vehicle", LOCATION, "building")) == (LOCATION, "building", "vehicle")
    assert canonical(("sidewalk", "vehicle")) == canonical(("vehicle", "sidewalk", "vehicle"))
    assert UNIVERSAL_FEATURES[0] == LOCATION and len(UNIVERSAL_FEATURES) == 21


def test_cached_evaluator_counts_and_validates():
    calls = []
    ev = CachedEvaluator(per_set(lambda s: (calls.append(s), 0.5)[1]))
    assert ev(("a", "b")) == 0.5
    assert ev(("b", "a")) == 0.5  # canonical cache hit
    assert ev.call_count == 1 and len(calls) == 1
    bad = CachedEvaluator(per_set(lambda s: 1.5))
    with pytest.raises(EvaluatorError):
        bad(("a",))


def test_inclusion_all_ties_adds_smallest_id():
    ev = CachedEvaluator(per_set(lambda s: len(s) / 21))
    state = FsState(current=(), pinned=())
    inclusion_step(state, ("c", "a", "b"), ev)
    assert state.current == ("a",)
    assert () in state.history


def test_inclusion_unique_best_singleton():
    table = {("b",): 0.9, ("a",): 0.1, ("c",): 0.2}
    ev = CachedEvaluator(per_set(table_eval(table)))
    state = FsState(current=(), pinned=())
    inclusion_step(state, ("a", "b", "c"), ev)
    assert state.current == ("b",)


def test_inclusion_respects_pinned():
    ev = CachedEvaluator(per_set(lambda s: len(s) / 21))
    state = FsState(current=(LOCATION,), pinned=(LOCATION,))
    inclusion_step(state, UNIVERSAL_FEATURES, ev)
    assert state.current.count(LOCATION) == 1 and len(state.current) == 2


def test_exclusion_monotone_never_removes():
    ev = CachedEvaluator(per_set(lambda s: len(s) / 21))
    state = FsState(current=canonical(("a", "b", "c")), pinned=())
    assert exclusion_step(state, ev) is False
    assert state.current == ("a", "b", "c")


def test_exclusion_removes_hurting_feature():
    def fn(s):
        return 0.2 if "bad" in s else 0.8
    state = FsState(current=canonical(("a", "bad")), pinned=())
    assert exclusion_step(state, CachedEvaluator(per_set(fn))) is True
    assert state.current == ("a",)


def test_exclusion_never_removes_pinned_or_last():
    def fn(s):
        return 1.0 - 0.1 * len(s)
    state = FsState(current=(LOCATION,), pinned=(LOCATION,))
    assert exclusion_step(state, CachedEvaluator(per_set(fn))) is False
    state2 = FsState(current=("a",), pinned=())
    assert exclusion_step(state2, CachedEvaluator(per_set(fn))) is False  # size guard


def test_sffs_two_feature_table():
    table = {(): 0.0, ("a",): 0.5, ("b",): 0.6, ("a", "b"): 0.9,
             ("a", "b", "c"): 0.85, ("a", "c"): 0.3, ("b", "c"): 0.3, ("c",): 0.1}
    out, _ = sffs(("a", "b", "c"), CachedEvaluator(per_set(table_eval(table))))
    assert out == ("a", "b")
    assert out == brute_force_best(("a", "b", "c"), table_eval(table))


def test_sffs_single_dominant_feature():
    def fn(s):
        return 1.0 if s == ("d",) else 0.3 if s else 0.0
    assert sffs(("a", "b", "c", "d"), CachedEvaluator(per_set(fn)))[0] == ("d",)


def test_sffs_vmax_bound():
    ev = lambda s: len(s) / 21  # monotone: wants everything
    out, _ = sffs(("a", "b", "c", "d"), CachedEvaluator(per_set(ev)), v_max=2)
    assert out == ("a", "b")  # tie-broken 2-set


def test_sffs_pinned_location_always_kept():
    def fn(s):
        # location actively hurts, but is pinned
        return 0.9 - 0.5 * (LOCATION in s) * 0 + 0.01 * len(s)
    out, _ = sffs(UNIVERSAL_FEATURES[:5], CachedEvaluator(per_set(fn)), pinned=(LOCATION,),
                  v_max=3)
    assert LOCATION in out
    with pytest.raises(ValueError):
        sffs(("a", "b"), CachedEvaluator(per_set(fn)), pinned=("zzz",))


def test_sffs_locally_optimal_dominates_greedy_and_matches_oracle():
    # 20 random table evaluators over a 6-feature universe
    import numpy as np
    universal = ("f0", "f1", "f2", "f3", "f4", "f5")
    rng = np.random.default_rng(42)
    matches = 0
    for _ in range(20):
        table = {}
        for r in range(7):
            for combo in itertools.combinations(universal, r):
                table[canonical(combo)] = float(rng.random())
        fn = table_eval(table)
        out, _ = sffs(universal, CachedEvaluator(per_set(fn)))
        acc = fn(out)
        # single-move local optimality
        for f in universal:
            if f not in out:
                assert fn(canonical(out + (f,))) <= acc
        if len(out) >= 2:
            for f in out:
                assert fn(canonical(x for x in out if x != f)) <= acc
        # dominance over plain forward selection
        assert acc >= fn(greedy_forward(universal, CachedEvaluator(per_set(fn))))
        if out == brute_force_best(universal, fn):
            matches += 1
    # floating search is not globally optimal in general; the match rate
    # against the exhaustive oracle is reported, not asserted
    print(f"sffs matched brute force on {matches}/20 random tables")
    assert matches >= 1


def test_brute_force_tie_and_vmax():
    fn = lambda s: 0.5  # all equal: smallest canonical set wins (empty)
    assert brute_force_best(("a", "b"), fn) == ()
    assert brute_force_best(("a", "b"), fn, pinned=("b",)) == ("b",)
    best1 = brute_force_best(("a", "b", "c"),
                             table_eval({("b",): 0.9, ("a", "b"): 0.95}), v_max=1)
    assert best1 == ("b",)
    with pytest.raises(ValueError):
        brute_force_best([f"f{i}" for i in range(25)], fn)


def test_trace_jsonl(tmp_path):
    table = {(): 0.0, ("a",): 0.5, ("b",): 0.6, ("a", "b"): 0.9}
    _, state = sffs(("a", "b"), CachedEvaluator(per_set(table_eval(table))))
    path = tmp_path / "trace.jsonl"
    write_trace(path, state)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert recs
    for r in recs:
        assert r["step"] in ("inclusion", "exclusion")
        assert set(r) == {"iteration", "step", "candidate", "accuracy", "chosen"}
    assert any(r["chosen"] for r in recs)


def test_evaluator_call_count_reproducible():
    table = {(): 0.0, ("a",): 0.5, ("b",): 0.6, ("a", "b"): 0.9}
    counts = []
    for _ in range(2):
        ev = CachedEvaluator(per_set(table_eval(table)))
        sffs(("a", "b"), ev)
        counts.append(ev.call_count)
    assert counts[0] == counts[1]


def test_many_matches_serial_calls(no_children_left):
    table = {("a",): 0.5, ("b",): 0.6, ("a", "b"): 0.9, ("b", "c"): 0.95}
    results = []
    for workers in (1, 2, 3):
        with CachedEvaluator(per_set(table_eval(table)), workers=workers) as ev:
            selected, state = sffs(("a", "b", "c", "d"), ev)
        results.append((selected, state.trace, ev.call_count))
    assert results[0] == results[1] == results[2]


def test_many_dedups_and_skips_cached(no_children_left):
    with CachedEvaluator(per_set(lambda s: len(s) / 4), workers=2) as ev:
        ev(("a",))
        ev.many([("a",), ("b", "a"), ("a", "b"), ("c",)])
        assert ev.call_count == 3
        assert [ev(s) for s in (("a", "b"), ("c",))] == [0.5, 0.25] and ev.call_count == 3


def test_many_deals_one_batch_per_worker(tmp_path, no_children_left):
    """An exclusion step whose base is not cached yet has sets of two sizes:
    ``fn`` gets them in the given order as one contiguous batch per worker,
    and the search reads what one worker gives."""
    table = {("a", "b", "c"): 0.5, ("a", "b"): 0.4, ("a", "c"): 0.7, ("b", "c"): 0.6}
    fn = table_eval(table)
    log = tmp_path / "batches"

    def batch(keys):
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), keys]) + "\n")
        return [fn(key) for key in keys]

    outcomes, batches = [], []
    for workers in (1, 2):
        with CachedEvaluator(batch, workers=workers) as ev:
            state = FsState(current=("a", "b", "c"), pinned=())
            moved = exclusion_step(state, ev)
        outcomes.append((moved, state.current, state.trace, ev.call_count))
        batches.append([json.loads(line) for line in log.read_text().splitlines()])
        log.unlink()
    base_first = [["a", "b", "c"], ["b", "c"], ["a", "c"], ["a", "b"]]
    assert [keys for _, keys in batches[0]] == [base_first]
    assert batches[0][0][0] == os.getpid()
    # the two-worker batches ran in the workers, in either order
    assert sorted(keys for _, keys in batches[1]) == sorted([base_first[:2], base_first[2:]])
    assert os.getpid() not in [pid for pid, _ in batches[1]]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (True, ("a", "c")) and outcomes[0][3] == 4


def test_pooled_evaluator_trains_a_lone_set_on_a_worker(no_children_left):
    """With two workers, a lone pending set and a ``__call__`` miss both
    run on a worker: this process never calls ``fn``."""
    calls = []

    def batch(keys):
        calls.append((os.getpid(), list(keys)))
        return [len(key) / 4 for key in keys]

    with CachedEvaluator(batch, workers=2) as ev:
        ev.many([("a",)])
        assert ev(("b", "a")) == 0.5 and ev.call_count == 2
    assert calls == []
    assert ev(("a",)) == 0.25 and ev.call_count == 2  # a cache hit after close


def _raises_or_out_of_range(first, second):
    def fn(feats):
        if feats == first:
            raise ValueError(f"cannot evaluate {feats}")
        return 1.5 if feats == second else 0.5
    return fn


@pytest.mark.parametrize("order", [(("a",), ("b",)), (("b",), ("a",)), (None, ("b",))])
def test_many_parallel_raises_the_serial_error(order, no_children_left):
    """A set that raises fails the whole ``many`` call with its error, and
    a value out of range with ``EvaluatorError``; the failed call caches
    nothing, for one worker or two."""
    outcomes = []
    for workers in (1, 2):
        with CachedEvaluator(per_set(_raises_or_out_of_range(*order)), workers=workers) as ev:
            ev(("e",))
            with pytest.raises((ValueError, EvaluatorError)) as info:
                ev.many([("c",), ("a",), ("b",), ("d",)])  # a search step's sets
            assert ev.call_count == 1
            assert ev(("c",)) == 0.5 and ev.call_count == 2  # evaluated anew
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is (ValueError if order[0] is not None else EvaluatorError)


def test_many_worker_death_fails_closed(no_children_left):
    def fn(feats):
        if feats == ("b",):
            os._exit(1)
        return 0.5
    with CachedEvaluator(per_set(fn), workers=2) as ev:
        with pytest.raises(EvaluatorError, match="worker died"):
            ev.many([("a",), ("b",), ("c",)])


def test_many_worker_death_in_a_later_step_fails_closed(no_children_left):
    """The workers that ran one step die in the next: that step raises, and
    every worker is joined before ``many`` returns."""
    def fn(feats):
        if feats == ("a", "c"):
            os._exit(1)
        return 0.5
    with CachedEvaluator(per_set(fn), workers=2) as ev:
        ev.many([("a",), ("b",), ("c",)])
        with pytest.raises(EvaluatorError, match="worker died"):
            ev.many([("a", "b"), ("a", "c"), ("b", "c")])
        assert multiprocessing.active_children() == []
        assert ev.call_count == 3 and ev(("b",)) == 0.5


def test_workers_run_nn_on_one_lane(no_children_left, monkeypatch):
    """A worker runs ``streetbeam.lanes`` work on one lane, whatever this
    process runs it on, and the helper thread this process started is
    joined before the pool forks."""
    monkeypatch.setattr(lanes, "_lanes", 2)
    lanes.split(np.negative, (np.arange(4.0),), (), lambda: (np.empty(4),))
    assert lanes._helper is not None
    with CachedEvaluator(lambda keys: [lanes._lanes / 2 for _ in keys], workers=2) as ev:
        ev.many([("a",), ("b",), ("c",)])
        assert lanes._helper is None
        assert [ev((key,)) for key in "abc"] == [0.5] * 3


def test_search_forks_its_workers_once(tmp_path, no_children_left):
    """The workers forked at a search's first step run the batches of every
    later one."""
    log = tmp_path / "pids"

    def batch(keys):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return [len(key) / 4 for key in keys]

    with CachedEvaluator(batch, workers=2) as ev:
        assert sffs(("a", "b", "c", "d"), ev, v_max=3)[0] == ("a", "b", "c")
    assert multiprocessing.active_children() == []
    pids = [int(pid) for pid in log.read_text().split()]
    # three inclusion steps, of 4, 3 and 2 sets, ran two batches each on the
    # workers, and so did the last exclusion step's one new set
    workers = [pid for pid in pids if pid != os.getpid()]
    assert len(workers) == 7 and len(pids) == 7
    assert len(set(workers)) <= 2


def _running(pid):
    """Whether ``pid`` still runs; a dead process its new parent has not
    reaped yet is a zombie and does not count."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux only")
def test_many_workers_die_with_their_parent(tmp_path, no_children_left):
    """A parent that exits without unwinding while ``many`` waits on its
    sleeping workers takes them with it, instead of leaving them blocked."""
    def fn(feats):
        (tmp_path / f"worker-{os.getpid()}").touch()
        time.sleep(30)
        return 0.5

    def parent():
        signal.signal(signal.SIGUSR1, lambda *_: os._exit(0))
        with CachedEvaluator(per_set(fn), workers=2) as ev:
            ev.many([("a",), ("b",)])

    proc = multiprocessing.get_context("fork").Process(target=parent)
    proc.start()
    pids = []
    try:
        deadline = time.monotonic() + 20
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = [int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")]
        assert len(pids) == 2, "the workers did not start"
        os.kill(proc.pid, signal.SIGUSR1)
        proc.join(10)
        assert proc.exitcode == 0
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, pids)), "a worker outlived its parent"
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
