"""Batch analysis service layer.

The paper frames fault-tree reasoning as *many* questions against *one*
tree: stakeholders ask whole batteries of MCS/MPS/IDP/check queries
(Sec. VII runs nine properties over the COVID-19 tree).  The
:class:`BatchAnalyzer` serves such batteries efficiently by

* parsing every query up front (with a text-level parse cache);
* deduplicating shared (sub)formulas through the structural
  Algorithm 1 translation cache, so ``MCS(TLE) & H1`` and
  ``MCS(TLE) & H2`` build the expensive ``MCS(TLE)`` BDD once;
* evaluating every query of a scenario against one shared
  :class:`~repro.bdd.manager.BDDManager` session, whose ITE/apply memo
  tables persist across queries and across batches;
* returning structured per-query results plus cache and timing
  metadata, ready for JSON serialisation (the ``bfl batch`` command);
* taking every analysis setting as one validated
  :class:`AnalysisOptions` (``BatchAnalyzer(tree, options)`` or
  ``BatchAnalyzer(tree, uniform=0.1)``), shared with ``bfl batch``,
  ``bfl serve`` and the HTTP battery fields;
* optionally fanning a battery out over a multi-process worker pool
  (``BatchAnalyzer(workers=N)``) with deterministic shard planning and
  merging, warm-starting workers from portable kernel snapshots
  (:mod:`repro.service.parallel`, ``bfl batch --workers/--store``).

Quickstart::

    from repro import build_covid_tree
    from repro.service import BatchAnalyzer

    analyzer = BatchAnalyzer(build_covid_tree())
    report = analyzer.run([
        "forall (IS => MoT)",
        "[[ MCS(MoT) & IS ]]",
        {"kind": "mcs"},
        {"kind": "check", "formula": "MCS(TLE)", "failed": ["H1", "VW"]},
    ])
    print(report.to_json(indent=2))
"""

from .batch import AnalysisSession, BatchAnalyzer, kernel_key, tree_fingerprint
from .options import AnalysisOptions
from .parallel import Shard, estimate_cost, plan_shards
from .pool import SessionPool
from .queries import BatchReport, QueryResult, QuerySpec, specs_from_any
from .server import AnalysisServer, ServerConfig, TokenBucket
from .store import SnapshotStore

__all__ = [
    "AnalysisOptions",
    "AnalysisServer",
    "AnalysisSession",
    "BatchAnalyzer",
    "BatchReport",
    "QueryResult",
    "QuerySpec",
    "ServerConfig",
    "SessionPool",
    "Shard",
    "SnapshotStore",
    "TokenBucket",
    "estimate_cost",
    "kernel_key",
    "plan_shards",
    "specs_from_any",
    "tree_fingerprint",
]
