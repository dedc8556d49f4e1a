"""Test helper: the average work of one request of a profile."""

from repro.core.work import WorkUnits


def mean_work(profile) -> WorkUnits:
    total = WorkUnits()
    for sample in profile.work_samples:
        total.merge(sample)
    return total.scaled(1.0 / max(len(profile.work_samples), 1))
