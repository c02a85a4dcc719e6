"""Which rounds the end-to-end medians are taken over."""

import statistics

import loadgen
import run


def rounds(steals):
    return [run.Round(loadgen.Outcome(), loadgen.Outcome(), 0.0, steal)
            for steal in steals]


def test_a_run_without_steal_keeps_every_round():
    assert run.quiet_rounds(rounds([0.0] * 20)) == [True] * 20


def test_ties_at_the_cut_are_all_kept():
    quiet = run.quiet_rounds(rounds([0.0, 0.01, 0.0, 0.2, 0.0, 0.3]))
    assert quiet == [True, False, True, False, True, False]
    quiet = run.quiet_rounds(rounds([0.0, 0.01, 0.01, 0.01, 0.2]))
    assert quiet == [True, True, True, True, False]


def test_at_least_half_of_the_rounds_are_kept():
    for steals in ([0.05, 0.01, 0.2, 0.3], [0.3, 0.2, 0.1, 0.0, 0.4],
                   [0.1] * 3 + [0.0] * 2):
        quiet = run.quiet_rounds(rounds(steals))
        assert sum(quiet) >= len(steals) / 2
        kept = [s for s, q in zip(steals, quiet) if q]
        assert max(kept) <= statistics.median(steals)
