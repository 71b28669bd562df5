"""Subgraph-isomorphism matching of patterns against data graphs.

The paper's algorithms never need the full enumeration of matches: both the
support metrics and entity identification only ask *which data nodes can play
the role of the designated node x* (``Q(x, G)``).  The matchers therefore
expose anchored, early-terminating queries in addition to full enumeration
(which is retained for the ``disVF2`` baseline and as a test oracle).

All matchers accept ``use_index`` (default on): probes for label candidate
sets, adjacency profiles, labelled neighbour sets and k-hop sketches are
then served by the data graph's resident
:class:`repro.graph.index.FragmentIndex` instead of being re-derived from
the raw graph per call.  Anchored ``match_set`` pools are label-bucketed and
profile-prefiltered against the index's kernel — interned label ids and a
precomputed profile matrix, vectorized when numpy is available — and dual
simulation runs over its CSR ranges.  ``use_index=False`` is the raw-graph
reference path; both return identical results (docs/indexing.md).

Matchers
--------
:class:`VF2Matcher`
    Plain backtracking subgraph isomorphism with candidate filtering, in the
    spirit of VF2 [Cordella et al. 2004].
:class:`GuidedMatcher`
    The optimised search of ``Match`` (paper Section 5.2): k-hop sketch
    pruning and best-first candidate ordering, with early termination.
:class:`LocalityMatcher`
    Restricts an anchored search to the d-neighbourhood ``Gd(vx)``, the data
    locality both DMine and Match rely on.
:class:`MultiPatternMatcher`
    Shares work across a set Σ of GPARs (adjacency profiles of candidates are
    computed once per candidate and reused by every rule; the prefix-trie
    mode additionally shares antecedent-prefix match sets).
:class:`MatchStore` / :class:`DeltaMatcher`
    Incremental match materialization for levelwise mining: parent match
    sets and embeddings are kept per fragment and a one-edge child is
    matched by probing only the new edge (docs/incremental.md).
:class:`SharedPatternPool`
    Process-wide canonical-antecedent registry across tenant rule sets:
    tenants whose rules share a canonical antecedent share one verification
    stream in multi-tenant serving (docs/multitenant.md).
"""

from repro.matching.base import Matcher, MatchStatistics
from repro.matching.candidates import (
    adjacency_profile,
    label_candidates,
    profile_satisfies,
    required_profile,
)
from repro.matching.incremental import (
    DeltaEdge,
    DeltaMatcher,
    MatchEntry,
    MatchStore,
    single_edge_delta,
)
from repro.matching.shared import (
    PoolStatistics,
    SharedPatternPool,
    TenantRegistration,
    rule_key,
)
from repro.matching.vf2 import VF2Matcher
from repro.matching.guided import GuidedMatcher
from repro.matching.locality import LocalityMatcher
from repro.matching.multi import MultiPatternMatcher
from repro.matching.simulation import (
    SimulationMatcher,
    maximum_dual_simulation,
    simulation_match_set,
)

__all__ = [
    "Matcher",
    "MatchStatistics",
    "VF2Matcher",
    "GuidedMatcher",
    "LocalityMatcher",
    "MultiPatternMatcher",
    "SimulationMatcher",
    "DeltaEdge",
    "DeltaMatcher",
    "MatchEntry",
    "MatchStore",
    "PoolStatistics",
    "SharedPatternPool",
    "TenantRegistration",
    "rule_key",
    "single_edge_delta",
    "maximum_dual_simulation",
    "simulation_match_set",
    "label_candidates",
    "adjacency_profile",
    "required_profile",
    "profile_satisfies",
]
