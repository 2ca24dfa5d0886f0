//! # muse-verify
//!
//! Static verification of MuSE queries, graphs, and deployments, run before
//! any event flows. Four passes mirror the paper's correctness stack:
//!
//! 1. **Query lints** ([`query_lints`]): contradictory or unsatisfiable
//!    predicates (decided soundly in the [`domain`] interval abstract
//!    domain), zero/absent windows, duplicate event types, NSEQ scoping.
//! 2. **Graph checks** ([`graph_checks`]): acyclicity, cover
//!    well-formedness (Def. 7), combination correctness and redundancy
//!    (Defs. 5/6/15), negation-closure (Def. 9), completeness (Def. 8).
//! 3. **Deployment checks** ([`deploy_checks`]): input reachability under
//!    `Γ = (N, f, r)`, cost-model consistency of edge weights (§4.4), and
//!    sink/orphan structure.
//! 4. **Migration safety** ([`migrate`]): a plan-diff pass deciding whether
//!    snapshot state taken under one deployment can be mapped into another
//!    (the `MG025x` family), shipped as a typed [`MigrationPlan`] that
//!    `muse-runtime`'s `checkpoint::map_snapshot` enforces.
//!
//! Findings are structured [`Diagnostic`]s with stable `MGxxxx` codes,
//! severities, and source spans, collected into a [`Report`] with JSON and
//! pretty renderers. `muse-runtime::deploy` calls [`verify_for_deploy`]
//! fail-fast and refuses any plan whose report [`Report::has_errors`]; the
//! `muse-verify` CLI binary exposes the same checks over SASE query files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod deploy_checks;
pub mod diag;
pub mod domain;
pub mod graph_checks;
pub mod migrate;
pub mod query_lints;

pub use deploy_checks::verify_deployment;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use domain::{AbsAttr, Interval, PredAbstract, TypeMask};
pub use graph_checks::{verify_graph, VerifyConfig};
pub use migrate::{
    verify_migration, CarryMode, MigrationPlan, MigrationSpans, QuerySpanInfo, TaskAction, TaskKey,
};
pub use query_lints::{lint_query, lint_query_text, lint_workload};

use muse_core::graph::{MuseGraph, PlanContext};

/// Runs all three passes over a plan: lints every query of the context,
/// verifies the graph structure, and — when the structure is sound — the
/// deployment-level properties. The returned report is sorted errors-first.
pub fn verify_plan(graph: &MuseGraph, ctx: &PlanContext<'_>, cfg: &VerifyConfig) -> Report {
    let mut report = Report::new();
    for query in ctx.queries {
        lint_query(query, None, &mut report);
    }
    lint_workload(ctx.queries, &mut report);
    let structure_ok = verify_graph(graph, ctx, cfg, &mut report);
    if structure_ok {
        verify_deployment(graph, ctx, cfg, &mut report);
    }
    report.sort();
    report
}

/// The fail-fast profile used by `muse-runtime::deploy`: all structural and
/// deployment checks, but no enumerative completeness pass (which is
/// exponential and belongs in validation, not on the deploy path).
pub fn verify_for_deploy(graph: &MuseGraph, ctx: &PlanContext<'_>) -> Report {
    verify_plan(graph, ctx, &VerifyConfig::for_deploy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::prelude::*;

    /// The paper's running example verifies clean end to end.
    #[test]
    fn amuse_plan_is_clean() {
        let mut catalog = Catalog::new();
        let c = catalog.add_event_type("C").unwrap();
        let l = catalog.add_event_type("L").unwrap();
        let f = catalog.add_event_type("F").unwrap();
        let network = NetworkBuilder::new(3, 3)
            .node(NodeId(0), [c, f])
            .node(NodeId(1), [c, l])
            .node(NodeId(2), [l])
            .rate(c, 100.0)
            .rate(l, 100.0)
            .rate(f, 1.0)
            .build();
        let pattern = Pattern::seq([
            Pattern::and([Pattern::leaf(c), Pattern::leaf(l)]),
            Pattern::leaf(f),
        ]);
        let query = Query::build(QueryId(0), &pattern, vec![], 1_000).unwrap();
        let plan = amuse(&query, &network, &AMuseConfig::default()).unwrap();
        let queries = [query];
        let ctx = muse_core::graph::PlanContext::new(&queries, &network, &plan.table);
        let report = verify_plan(&plan.graph, &ctx, &VerifyConfig::default());
        assert!(report.is_clean(), "{report}");
    }
}
