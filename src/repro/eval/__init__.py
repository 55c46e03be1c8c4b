"""``repro.eval`` — ranking metrics and the sampled evaluation protocol."""

from .evaluator import evaluate_ranking, precollate, rank_all
from .full_ranking import evaluate_full_ranking, full_ranking_ranks
from .metrics import (MetricReport, hit_rate, item_coverage, mrr, ndcg, ranks_from_scores,
                      recall, top_k_items)
from .protocol import CandidateSets
from .significance import BootstrapResult, paired_bootstrap

__all__ = [
    "hit_rate", "ndcg", "mrr", "recall", "ranks_from_scores", "MetricReport",
    "item_coverage", "top_k_items",
    "CandidateSets", "evaluate_ranking", "rank_all", "precollate",
    "evaluate_full_ranking", "full_ranking_ranks",
    "paired_bootstrap", "BootstrapResult",
]
