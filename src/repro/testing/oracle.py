"""Differential oracle: maintained streaming state vs fresh recomputes.

The oracle's contract (see ``docs/adversarial.md``): after **every** update
batch, on every configured ``backend × index-mode`` combination,

* a :class:`~repro.stream.StreamingIdentifier` maintained across the
  batches must report an :func:`eip_fingerprint` byte-identical to
  ``identify_entities`` re-run from scratch on a pristine copy of the
  mutated graph, and
* a :class:`~repro.stream.MaintainedMatchView` over the maintainable
  antecedent patterns must report match sets equal to a fresh index-free
  matcher's ``match_set`` on the live graph.

Any exception raised by the maintained side is itself a divergence
(``component="error"``) — a streaming path that rejects a workload the
static path accepts is exactly the kind of semantics gap this harness
exists to catch.  The oracle reports the **first** divergence per
combination and keeps combinations independent (each gets its own graph
copy), so a reported batch index is the true minimal failing prefix for
that combination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.graph.graph import Graph
from repro.identification import identify_entities
from repro.identification.eip import EIPConfig, EIPResult
from repro.matching import DeltaMatcher, MatchStore, VF2Matcher
from repro.pattern.gpar import GPAR
from repro.stream import MaintainedMatchView, StreamingIdentifier, UpdateBatch

#: batch_index used for the pre-batch (initial assembly) check.
INITIAL = -1


def eip_fingerprint(result: EIPResult) -> tuple:
    """Order-independent identity of an EIP answer (entities, confidences,
    per-rule match sets) — two results with equal fingerprints answer every
    query of the serving layer identically."""
    return (
        tuple(sorted(str(node) for node in result.identified)),
        tuple(
            sorted(
                (rule.name, round(confidence, 9))
                for rule, confidence in result.rule_confidences.items()
            )
        ),
        tuple(
            sorted(
                (rule.name, tuple(sorted(str(node) for node in matches)))
                for rule, matches in result.rule_matches.items()
            )
        ),
    )


@dataclass(frozen=True)
class Divergence:
    """First observed disagreement between maintained and fresh state."""

    batch_index: int  #: batch after which it surfaced (-1 = initial state)
    component: str  #: "identifier", "matchview" or "error"
    backend: str
    use_index: bool
    detail: str
    expected: object = None  #: fresh-recompute side (fingerprint / sets)
    actual: object = None  #: maintained side

    def describe(self) -> str:
        where = "initial state" if self.batch_index == INITIAL else f"batch {self.batch_index}"
        return (
            f"[{self.component}] {where} on backend={self.backend} "
            f"index={'on' if self.use_index else 'off'}: {self.detail}"
        )


@dataclass
class OracleReport:
    """Outcome of one :meth:`DifferentialOracle.run`."""

    divergences: list[Divergence] = field(default_factory=list)
    batches_checked: int = 0
    combos_run: int = 0
    checks: int = 0  #: individual maintained-vs-fresh comparisons
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.wall_time if self.wall_time > 0 else 0.0


class DifferentialOracle:
    """Run maintained streaming state against fresh recomputes.

    Parameters
    ----------
    rules:
        The Σ under test.
    algorithm, eta, num_workers, seed:
        Forwarded to both the maintained identifier and the fresh
        ``identify_entities`` runs (the two sides must answer the same
        question).
    backends, index_modes:
        The grid of streaming configurations to exercise; the fresh side
        always recomputes sequentially on a pristine graph copy.
    view_matcher_factory:
        Zero-argument callable building the matcher that backs the
        maintained match view.  The default is the real enumerating VF2
        matcher; tests inject known-buggy shims here to prove the harness
        catches them.
    """

    def __init__(
        self,
        rules: Sequence[GPAR],
        algorithm: str = "match",
        eta: float = 0.5,
        num_workers: int = 2,
        seed: int = 0,
        backends: Sequence[str] = ("sequential",),
        index_modes: Sequence[bool] = (True,),
        view_matcher_factory: Callable[[], object] | None = None,
    ) -> None:
        self.rules = tuple(rules)
        self.algorithm = algorithm
        self.eta = eta
        self.num_workers = num_workers
        self.seed = seed
        self.backends = tuple(backends)
        self.index_modes = tuple(bool(mode) for mode in index_modes)
        self.view_matcher_factory = view_matcher_factory or (
            lambda: VF2Matcher(use_index=False)
        )

    # -- configuration ----------------------------------------------------
    def narrowed(self, divergence: Divergence) -> "DifferentialOracle":
        """A single-combination oracle replaying *divergence*'s config —
        what the distiller iterates with."""
        clone = DifferentialOracle(
            self.rules,
            algorithm=self.algorithm,
            eta=self.eta,
            num_workers=self.num_workers,
            seed=self.seed,
            backends=(divergence.backend,),
            index_modes=(divergence.use_index,),
            view_matcher_factory=self.view_matcher_factory,
        )
        return clone

    def checker_for(self, divergence: Divergence):
        """A distillation predicate pinned to *divergence*.

        Replays only the failing combination and only accepts a failure of
        the same ``component`` — delta debugging must shrink towards the
        *original* bug, not towards whatever new failure (e.g. an op made
        invalid by dropping its predecessor) a reduction introduces.
        """
        oracle = self.narrowed(divergence)

        def check(graph: Graph, batches: Sequence[UpdateBatch]) -> Divergence | None:
            found = oracle.check(graph, batches)
            if found is not None and found.component == divergence.component:
                return found
            return None

        return check

    def _config(self, backend: str, use_index: bool):
        from repro.identification.eip import EIPConfig

        return EIPConfig(
            eta=self.eta,
            num_workers=self.num_workers,
            seed=self.seed,
            backend=backend,
            use_index=use_index,
        )

    # -- fresh side -------------------------------------------------------
    def _fresh_result(self, graph: Graph) -> EIPResult:
        return identify_entities(
            graph.copy(),
            list(self.rules),
            eta=self.eta,
            num_workers=self.num_workers,
            algorithm=self.algorithm,
            seed=self.seed,
        )

    def _maintainable_patterns(self, graph: Graph):
        from repro.exceptions import PatternError
        from repro.pattern.radius import pattern_radius

        matcher = self.view_matcher_factory()
        probe = DeltaMatcher(graph, matcher, MatchStore(graph))
        patterns = []
        for rule in self.rules:
            pattern = rule.antecedent
            try:
                # Census-split antecedents are covered by the identifier
                # check; materializing their embedding *products* in the
                # view would be cartesian in the free part's witnesses.
                pattern_radius(pattern.expanded())
            except PatternError:
                continue
            if probe.supports(pattern) and pattern not in patterns:
                patterns.append(pattern)
        return patterns

    # -- the run ----------------------------------------------------------
    def run(
        self,
        graph: Graph,
        batches: Sequence[UpdateBatch],
        stop_at_first: bool = False,
    ) -> OracleReport:
        """Replay *batches* on every combination; report first divergences.

        *graph* itself is never mutated — every combination maintains its
        own copy.  With ``stop_at_first`` the run short-circuits at the
        first divergence found (the distiller's mode).
        """
        report = OracleReport()
        started = time.perf_counter()
        for backend in self.backends:
            for use_index in self.index_modes:
                report.combos_run += 1
                divergence = self._run_combo(graph, batches, backend, use_index, report)
                if divergence is not None:
                    report.divergences.append(divergence)
                    if stop_at_first:
                        report.wall_time = time.perf_counter() - started
                        return report
        report.batches_checked = len(batches)
        report.wall_time = time.perf_counter() - started
        return report

    def check(self, graph: Graph, batches: Sequence[UpdateBatch]) -> Divergence | None:
        """First divergence on the configured grid, or ``None`` — the
        predicate the distiller shrinks against."""
        report = self.run(graph, batches, stop_at_first=True)
        return report.divergences[0] if report.divergences else None

    # ------------------------------------------------------------------
    def _run_combo(
        self,
        graph: Graph,
        batches: Sequence[UpdateBatch],
        backend: str,
        use_index: bool,
        report: OracleReport,
    ) -> Divergence | None:
        live = graph.copy()
        mark = lambda **kw: Divergence(backend=backend, use_index=use_index, **kw)  # noqa: E731
        try:
            identifier = StreamingIdentifier(
                live,
                list(self.rules),
                config=self._config(backend, use_index),
                algorithm=self.algorithm,
            )
        except Exception as error:  # semantics gap: streaming rejects Σ
            return mark(
                batch_index=INITIAL,
                component="error",
                detail=f"StreamingIdentifier rejected the workload: {error}",
                actual=repr(error),
            )
        try:
            patterns = self._maintainable_patterns(live)
            view = (
                MaintainedMatchView(live, patterns, self.view_matcher_factory())
                if patterns
                else None
            )
            divergence = self._compare(identifier, view, patterns, INITIAL, mark, report)
            if divergence is not None:
                return divergence
            for index, batch in enumerate(batches):
                try:
                    identifier.apply(batch)
                    if view is not None:
                        view.refresh()
                except Exception as error:
                    return mark(
                        batch_index=index,
                        component="error",
                        detail=f"maintenance raised while applying the batch: {error}",
                        actual=repr(error),
                    )
                divergence = self._compare(identifier, view, patterns, index, mark, report)
                if divergence is not None:
                    return divergence
        finally:
            identifier.close()
        return None

    def _compare(
        self, identifier, view, patterns, batch_index: int, mark, report: OracleReport
    ) -> Divergence | None:
        maintained = eip_fingerprint(identifier.result)
        fresh = eip_fingerprint(self._fresh_result(identifier.graph))
        report.checks += 1
        if maintained != fresh:
            return mark(
                batch_index=batch_index,
                component="identifier",
                detail="maintained EIP result differs from a fresh recompute",
                expected=fresh,
                actual=maintained,
            )
        if view is not None:
            oracle_matcher = VF2Matcher(use_index=False)
            for pattern in patterns:
                report.checks += 1
                kept = view.match_set(pattern)
                truth = frozenset(oracle_matcher.match_set(identifier.graph, pattern))
                if kept != truth:
                    return mark(
                        batch_index=batch_index,
                        component="matchview",
                        detail=(
                            "maintained match set differs from re-matching "
                            f"for pattern {pattern!r}"
                        ),
                        expected=tuple(sorted(map(str, truth))),
                        actual=tuple(sorted(map(str, kept))),
                    )
        return None


# ----------------------------------------------------------------------
# Multi-tenant checker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantDivergence:
    """A tenant's projected answer disagreeing with its independent run."""

    batch_index: int  #: batch after which it surfaced (-1 = initial state)
    tenant: str  #: "*" for failures not attributable to one tenant
    backend: str
    use_index: bool
    detail: str
    expected: object = None  #: independent ``identify_entities`` fingerprint
    actual: object = None  #: shared-core projection fingerprint

    def describe(self) -> str:
        where = "initial state" if self.batch_index == INITIAL else f"batch {self.batch_index}"
        return (
            f"[tenant {self.tenant}] {where} on backend={self.backend} "
            f"index={'on' if self.use_index else 'off'}: {self.detail}"
        )


def multi_tenant_check(
    graph: Graph,
    tenants: Mapping[str, Sequence[GPAR]],
    batches: Sequence[UpdateBatch],
    *,
    eta: float = 0.5,
    num_workers: int = 2,
    algorithm: str = "match",
    seed: int = 0,
    backends: Sequence[str] = ("sequential",),
    index_modes: Sequence[bool] = (True,),
    radius_floor: int = 0,
) -> list[TenantDivergence]:
    """Cross-Σ correctness: shared-core projections vs independent runs.

    For every ``backend × index mode`` combination, admits every tenant into
    one :class:`~repro.stream.MultiTenantIdentifier` over a copy of *graph*,
    then — initially and after **each** batch — asserts every tenant's
    :meth:`result_for` projection is :func:`eip_fingerprint`-identical to an
    independent ``identify_entities`` run with that tenant's rules on the
    same (mutated) graph.  Combinations stay independent (own graph copy);
    the first divergence per combination is reported, one entry per
    combination at most, and an empty list means the shared substrate is
    answer-preserving across the whole grid.
    """
    from repro.stream import MultiTenantIdentifier

    divergences: list[TenantDivergence] = []
    for backend in backends:
        for use_index in index_modes:
            use_index = bool(use_index)
            config = EIPConfig(
                eta=eta,
                num_workers=num_workers,
                seed=seed,
                backend=backend,
                use_index=use_index,
            )
            mark = lambda **kw: TenantDivergence(  # noqa: E731
                backend=backend, use_index=use_index, **kw
            )
            multi = MultiTenantIdentifier(
                graph.copy(),
                config=config,
                algorithm=algorithm,
                radius_floor=radius_floor,
            )
            try:
                divergence = _run_tenant_combo(multi, tenants, batches, mark)
            finally:
                multi.close()
            if divergence is not None:
                divergences.append(divergence)
    return divergences


def _run_tenant_combo(
    multi,
    tenants: Mapping[str, Sequence[GPAR]],
    batches: Sequence[UpdateBatch],
    mark,
) -> TenantDivergence | None:
    try:
        for tenant, rules in tenants.items():
            multi.admit(tenant, tuple(rules))
    except Exception as error:  # semantics gap: shared core rejects a Σ
        return mark(
            batch_index=INITIAL,
            tenant="*",
            detail=f"admission rejected a tenant rule set: {error}",
            actual=repr(error),
        )
    divergence = _compare_tenants(multi, INITIAL, mark)
    if divergence is not None:
        return divergence
    for index, batch in enumerate(batches):
        try:
            multi.apply(batch)
        except Exception as error:
            return mark(
                batch_index=index,
                tenant="*",
                detail=f"shared core raised while applying the batch: {error}",
                actual=repr(error),
            )
        divergence = _compare_tenants(multi, index, mark)
        if divergence is not None:
            return divergence
    return None


def _compare_tenants(multi, batch_index: int, mark) -> TenantDivergence | None:
    for tenant in multi.tenants:
        projected = eip_fingerprint(multi.result_for(tenant))
        fresh = eip_fingerprint(multi.recompute_for(tenant))
        if projected != fresh:
            return mark(
                batch_index=batch_index,
                tenant=tenant,
                detail="shared-core projection differs from an independent run",
                expected=fresh,
                actual=projected,
            )
    return None


__all__ = [
    "Divergence",
    "DifferentialOracle",
    "OracleReport",
    "TenantDivergence",
    "eip_fingerprint",
    "multi_tenant_check",
    "INITIAL",
]
