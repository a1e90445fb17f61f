"""The evaluation path runs each distinct configuration once."""

from repro.experiments import figures
from repro.experiments.figures import ALL_FIGURES, Scale, run_all

#: Figure 8 runs at ``num_clients``, one of Figure 6's counts.
TINY = Scale(duration_ms=300.0, num_clients=6, seed=2, client_counts=(3, 6))


def test_rendering_every_figure_runs_each_distinct_config_once(monkeypatch):
    run_experiment = figures.run_experiment
    calls = []

    def counted(config):
        calls.append(config)
        return run_experiment(config)

    monkeypatch.setattr(figures, "run_experiment", counted)
    rendered = run_all(TINY)
    assert set(rendered) == set(ALL_FIGURES)
    # The six matrices hold 33 configurations: Hierarchical T1 at 90% is in
    # Figures 1, 5, 7 and 9, FlexCast O1 at 90% in 5 and 7, T2 and T3 at 90%
    # in 5 and 9, T1 at 95% and 99% in 7 and 9, and Figure 8's three in 6.
    assert len(calls) == len(set(calls)) == 22
