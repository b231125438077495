import os
import time

import numpy as np
import pytest

from sdpsketch._blas import _find_controls
from sdpsketch._team import Arena, Team
from sdpsketch.instances import random_feasible_sdp
from sdpsketch.sketch import restrict_dual, sample_ensemble
from sdpsketch.solver import SolverConfig, solve_consensus


def test_every_task_runs_exactly_once_per_command():
    # More workers than this host may have cores; a lost or repeated task
    # would leave a slot off the command count.
    arena = Arena([(37,)])
    counts = arena.arrays[0]

    def bump(k):
        counts[k] += 1.0

    tasks = [lambda k=k: bump(k) for k in range(len(counts))]
    mask = os.sched_getaffinity(0)
    blas = [get() for _, get in _find_controls()]
    team = Team(8, lambda command: tasks)
    pids = [pid for pid, _, _ in team.helpers]
    try:
        for _ in range(200):
            team.run(0)
    finally:
        team.join()
    assert np.all(counts == 200.0)
    assert team.helpers == []
    assert os.sched_getaffinity(0) == mask
    assert [get() for _, get in _find_controls()] == blas
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        raise AssertionError(f"helper {pid} still running after join")


def test_failed_task_is_reported_and_team_still_closes():
    def boom():
        raise ValueError("task failed")

    team = Team(2, lambda command: [boom] * 4)
    try:
        # ValueError where the caller ran the task, RuntimeError for a helper
        with pytest.raises((ValueError, RuntimeError)):
            team.run(0)
    finally:
        team.join()
    assert team.helpers == []


def test_caller_failure_is_not_replaced_by_a_helper_failure():
    caller = os.getpid()

    def boom():
        raise ValueError(f"task failed in process {os.getpid()}")

    # A process stops at its first failed task, so with two tasks and two
    # processes the caller and the helper each run, and fail, exactly one.
    team = Team(2, lambda command: [boom] * 2)
    try:
        with pytest.raises(ValueError, match=f"process {caller}$"):
            team.run(0)
    finally:
        team.join()
    assert team.helpers == []


def test_helper_that_dies_is_reported_instead_of_waited_for():
    caller = os.getpid()

    def die_in_helper():
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.05)  # leaves the helper a task to claim

    team = Team(2, lambda command: [die_in_helper] * 4)
    try:
        if team.size > 1:
            with pytest.raises(RuntimeError):
                team.run(0)
    finally:
        team.join()
    assert team.helpers == []

def _thread_masks():
    masks = []
    for tid in os.listdir("/proc/self/task"):
        try:
            masks.append(os.sched_getaffinity(int(tid)))
        except ProcessLookupError:  # the thread exited meanwhile
            pass
    return masks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_consensus_solve_restores_affinity_and_blas_threads():
    # The solve pins the caller to one CPU and holds every OpenBLAS at one
    # thread; afterwards each thread of the process, including BLAS worker
    # threads started again on the way out, must have the mask and counts
    # that were there before.
    prob = random_feasible_sdp(np.random.default_rng(5), 8, 4)
    bs = restrict_dual(prob, sample_ensemble(8, 7, 40, seed=3))
    mask = os.sched_getaffinity(0)
    counts = [get() for _, get in _find_controls()]
    solve_consensus(bs, SolverConfig(workers=2))
    assert all(m == mask for m in _thread_masks())
    assert [get() for _, get in _find_controls()] == counts
