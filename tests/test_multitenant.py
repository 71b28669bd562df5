"""Multi-tenant Σ serving: shared pool, warm admission, projections, sessions.

Covers the cross-rule-set sharing layer end to end: canonical-key
deduplication in :class:`~repro.matching.SharedPatternPool`, dynamic
Σ admission/retirement on a live :class:`~repro.stream.StreamingIdentifier`,
per-tenant projections of one shared core
(:class:`~repro.stream.MultiTenantIdentifier` — gated byte-identical to
independent runs by :func:`repro.testing.multi_tenant_check`), ownership
pinning in :class:`~repro.matching.MatchStore`, and the session-level
fan-out of :class:`repro.api.SharedSessionCore`.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.datasets import generate_gpars, most_frequent_predicates, synthetic_graph
from repro.exceptions import ReproError, StreamError
from repro.identification.eip import EIPConfig, identify_entities
from repro.matching import (
    DeltaMatcher,
    MatchStore,
    SharedPatternPool,
    VF2Matcher,
    rule_key,
)
from repro.pattern.gpar import GPAR
from repro.pattern.pattern import Pattern
from repro.stream import (
    MultiTenantIdentifier,
    StreamingIdentifier,
    random_update_batch,
)
from repro.testing import eip_fingerprint, multi_tenant_check


def _workload(seed=3, count=8):
    graph = synthetic_graph(60, 200, num_node_labels=4, num_edge_labels=3, seed=seed)
    predicate = most_frequent_predicates(graph, top=1)[0]
    rules = generate_gpars(
        graph, predicate, count=count, max_pattern_edges=3, d=2, seed=seed
    )
    return graph, rules


def _config(**overrides):
    defaults = dict(eta=0.1, num_workers=2, seed=3)
    defaults.update(overrides)
    return EIPConfig(**defaults)


class TestSharedPatternPool:
    def test_overlapping_slices_share_canonical_keys(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        first = pool.register("t1", tuple(rules[:5]))
        assert len(first.novel) == 5 and not first.shared
        second = pool.register("t2", tuple(rules[2:7]))
        # rules 2..4 are already resident under t1's keys
        assert set(second.shared) == set(rules[2:5])
        assert set(second.novel) == set(rules[5:7])
        assert second.shared_prefix_hits > 0
        for rule in rules[2:5]:
            assert pool.representative(rule_key(rule)) in rules
            assert pool.owners_of(rule) == frozenset({"t1", "t2"})

    def test_release_returns_last_owner_representatives(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        pool.register("t1", tuple(rules[:5]))
        pool.register("t2", tuple(rules[2:7]))
        retired = pool.release("t1")
        # rules 0..1 lost their only owner; 2..4 survive under t2
        assert set(retired) == set(rules[:2])
        assert pool.owners_of(rules[2]) == frozenset({"t2"})
        retired = pool.release("t2")
        assert set(retired) == set(rules[2:7])
        assert len(pool) == 0

    def test_duplicate_tenant_and_empty_sigma_are_rejected(self):
        _graph, rules = _workload()
        pool = SharedPatternPool()
        pool.register("t1", tuple(rules[:2]))
        with pytest.raises(ReproError):
            pool.register("t1", tuple(rules[:2]))
        with pytest.raises(ReproError):
            pool.register("t2", ())


class TestMatchStoreOwnership:
    def _materialized(self, seed=1):
        graph = synthetic_graph(80, 240, num_node_labels=4, num_edge_labels=3, seed=seed)
        predicate = most_frequent_predicates(graph, top=1)[0]
        rules = generate_gpars(graph, predicate, count=2, max_pattern_edges=2, seed=seed)
        store = MatchStore(graph)
        delta_matcher = DeltaMatcher(graph, VF2Matcher(), store)
        patterns = []
        for rule in rules:
            pattern = rule.pr_pattern()
            if pattern in patterns:
                continue
            candidates = sorted(graph.nodes_with_label(pattern.label(pattern.x)), key=str)
            delta_matcher.materialize(pattern, candidates)
            patterns.append(pattern)
        return store, patterns

    def test_acquire_pins_through_retain(self):
        store, patterns = self._materialized()
        pinned = patterns[0]
        store.acquire(pinned, "tenant-a")
        dropped = store.retain([])  # a round prune that keeps nothing
        assert dropped == len(patterns) - 1
        assert store.get(pinned) is not None
        assert store.owners_of(pinned) == frozenset({"tenant-a"})

    def test_close_one_tenant_keeps_the_other(self):
        # The regression the refcount exists for: two tenants pin the same
        # entry; the first tenant's teardown must not evict it.
        store, patterns = self._materialized()
        shared = patterns[0]
        store.acquire(shared, "tenant-a")
        store.acquire(shared, "tenant-b")
        assert store.release("tenant-a") == 0
        assert store.get(shared) is not None
        assert store.owners_of(shared) == frozenset({"tenant-b"})
        assert store.release("tenant-b") == 1
        assert store.get(shared) is None


class TestStreamingAdmission:
    def test_admit_then_tick_then_retire_stay_exact(self):
        graph, rules = _workload()
        initial, additions = tuple(rules[:3]), tuple(rules[3:6])
        config = _config()
        with StreamingIdentifier(graph, list(initial), config=config) as identifier:
            report = identifier.admit_rules(additions)
            assert set(report.admitted) == set(additions)
            union = initial + additions

            def fresh(sigma):
                return identify_entities(
                    graph.copy(), list(sigma), eta=config.eta,
                    num_workers=config.num_workers, seed=config.seed,
                )

            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(union))
            identifier.apply(random_update_batch(graph, size=6, seed=11))
            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(union))
            retired = identifier.retire_rules(additions)
            assert set(retired) == set(additions)
            assert eip_fingerprint(identifier.result) == eip_fingerprint(fresh(initial))

    def test_admitting_a_wider_rule_is_rejected(self):
        graph, rules = _workload()
        predicate = most_frequent_predicates(graph, top=1)[0]
        x_label = predicate.label(predicate.x)
        edge_label = predicate.edges()[0].label
        narrow = GPAR(
            Pattern(
                nodes={"x": x_label, "y": predicate.label(predicate.y), "v1": x_label},
                edges=[("x", "v1", edge_label), ("x", "y", edge_label)],
                x="x",
                y="y",
            ),
            consequent_label=edge_label,
            validate=False,
        )
        wide = GPAR(
            Pattern(
                nodes={
                    "x": x_label,
                    "y": predicate.label(predicate.y),
                    "v1": x_label,
                    "v2": x_label,
                    "v3": x_label,
                },
                edges=[
                    ("x", "v1", edge_label),
                    ("v1", "v2", edge_label),
                    ("v2", "v3", edge_label),
                    ("x", "y", edge_label),
                ],
                x="x",
                y="y",
            ),
            consequent_label=edge_label,
            validate=False,
        )
        with StreamingIdentifier(graph, [narrow], config=_config()) as identifier:
            with pytest.raises(StreamError, match="radius_floor"):
                identifier.admit_rules([wide])
            # radius_floor headroom makes the same admission legal
        with StreamingIdentifier(
            graph, [narrow], config=_config(), radius_floor=3
        ) as identifier:
            identifier.admit_rules([wide])
            assert wide in identifier.rules

    def test_retiring_the_whole_sigma_is_rejected(self):
        graph, rules = _workload()
        with StreamingIdentifier(graph, list(rules[:2]), config=_config()) as identifier:
            with pytest.raises(StreamError):
                identifier.retire_rules(rules[:2])


class TestMultiTenantIdentifier:
    def test_warm_admission_pays_only_the_novel_suffix(self):
        graph, rules = _workload()
        with MultiTenantIdentifier(graph.copy(), config=_config()) as multi:
            first = multi.admit("t1", tuple(rules[:5]))
            assert first.cold_start and first.novel_rules == 5
            assert first.backfill_centers > 0
            second = multi.admit("t2", tuple(rules[2:7]))
            assert not second.cold_start
            assert second.shared_rules == 3 and second.novel_rules == 2
            third = multi.admit("t3", tuple(rules[2:5]))  # fully resident
            assert third.novel_rules == 0 and third.backfill_centers == 0
            assert len(multi.union_rules) == 7

    def test_projections_match_independent_runs_under_churn(self):
        graph, rules = _workload()
        tenants = {"t1": rules[:5], "t2": rules[2:7], "t3": rules[4:8]}
        batches = [
            random_update_batch(graph.copy(), size=6, seed=100 + i) for i in range(2)
        ]
        divergences = multi_tenant_check(
            graph,
            tenants,
            batches,
            eta=0.1,
            num_workers=2,
            seed=3,
            backends=("sequential", "threads"),
            index_modes=(True, False),
        )
        assert divergences == []

    def test_evict_keeps_remaining_tenants_exact(self):
        graph, rules = _workload()
        with MultiTenantIdentifier(graph.copy(), config=_config()) as multi:
            multi.admit("t1", tuple(rules[:5]))
            multi.admit("t2", tuple(rules[2:7]))
            multi.apply(random_update_batch(multi.graph, size=6, seed=7))
            multi.evict("t1")
            assert multi.tenants == ("t2",)
            assert eip_fingerprint(multi.result_for("t2")) == eip_fingerprint(
                multi.recompute_for("t2")
            )
            with pytest.raises(StreamError):
                multi.result_for("t1")

    def test_lifecycle_guards(self):
        graph, rules = _workload()
        multi = MultiTenantIdentifier(graph.copy(), config=_config())
        with pytest.raises(StreamError):
            multi.apply(random_update_batch(graph.copy(), size=4, seed=1))
        multi.admit("t1", tuple(rules[:3]))
        with pytest.raises(ReproError):
            multi.admit("t1", tuple(rules[:3]))  # duplicate tenant
        multi.evict("t1")
        assert multi._core is None  # last eviction closes the core
        multi.close()
        with pytest.raises(StreamError):
            multi.admit("t2", tuple(rules[:3]))


class TestSharedSessionCore:
    def test_tick_fans_out_and_close_one_keeps_one(self):
        graph, rules = _workload()
        config = _config()
        with api.open_shared_core(graph.copy(), config=config) as core:
            alpha = core.open_session("alpha", rules[:5])
            beta = core.open_session("beta", rules[2:7])
            assert alpha.admission.cold_start
            assert not beta.admission.cold_start and beta.admission.shared_rules == 3
            baseline = beta.graph_version
            batch = random_update_batch(core.graph, size=6, seed=5)
            _report, delta = alpha.apply(batch)
            assert delta.version == alpha.graph_version
            # the sibling advanced in the same tick and got its own delta
            assert beta.graph_version == alpha.graph_version
            assert [d.version for d in beta.deltas(baseline)] == [beta.graph_version]
            for session in (alpha, beta):
                assert eip_fingerprint(session.result) == eip_fingerprint(
                    session.recompute()
                )
            alpha.close()
            assert core.tenants == ("beta",)
            assert eip_fingerprint(beta.result) == eip_fingerprint(beta.recompute())

    def test_shared_sessions_reject_checkpointing(self, tmp_path):
        graph, rules = _workload()
        with api.open_shared_core(graph.copy(), config=_config()) as core:
            session = core.open_session("alpha", rules[:3])
            with pytest.raises(StreamError):
                session.save_state(tmp_path / "state.bin")
