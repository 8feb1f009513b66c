"""Episode-level metrics: Return, Length, and Average Reward (the ratio of
the first two, computed from them), plus the recent-window smoothing used for
learning curves."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = ["EpisodeRecord", "MetricMeans", "compute_metrics", "smooth_curve"]

SMOOTH_WINDOW = 20


@dataclass(frozen=True)
class EpisodeRecord:
    """One finished episode: cumulative return and length.  Its average
    reward is derived from them, never stored."""
    episode_index: int
    global_step: int
    episode_return: float
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("episode length must be >= 1")

    @property
    def avg_reward(self) -> float:
        """The per-step reward of the episode, ``episode_return / length``."""
        return self.episode_return / self.length


class MetricMeans(NamedTuple):
    episode_return: float
    length: float
    avg_reward: float


def compute_metrics(episodes: Iterable[EpisodeRecord]) -> MetricMeans:
    """Arithmetic means over episodes; avg_reward is the mean of the
    per-episode ratios R_i / Len_i."""
    eps = list(episodes)
    if not eps:
        raise ValueError("compute_metrics requires at least one episode")
    n = len(eps)
    return MetricMeans(
        sum(e.episode_return for e in eps) / n,
        sum(e.length for e in eps) / n,
        sum(e.avg_reward for e in eps) / n,
    )


def smooth_curve(episodes: list[EpisodeRecord], window: int = SMOOTH_WINDOW) -> list[MetricMeans]:
    """Trailing-window means (most recent ``window`` episodes) at every point
    of the curve."""
    out = []
    for i in range(len(episodes)):
        out.append(compute_metrics(episodes[max(0, i - window + 1):i + 1]))
    return out
