//! Command-line front end for the MuSE static verifier.
//!
//! ```text
//! muse-verify query <file.sase>... [--json]
//! muse-verify plan <file.sase>... --network <file.net> [options]
//! muse-verify codes
//! ```
//!
//! Query files hold one SASE query per non-empty, non-`#` line. Network
//! files describe `Γ = (N, f, r)` as plain text:
//!
//! ```text
//! # node <index> <TypeName>...     event types generated by the node
//! node 0 C F
//! node 1 C L
//! node 2 L
//! # rate <TypeName> <events/s>
//! rate C 100
//! rate L 100
//! rate F 1
//! ```
//!
//! Node indices are below `MAX_NODES` (128) and rates finite and ≥ 0; a
//! line breaking either is an input error.
//!
//! Exit status: 0 when no `Error`-severity diagnostic was produced, 1 when
//! the plan must be refused, 2 on usage or input errors.

use muse_core::catalog::Catalog;
use muse_core::graph::PlanContext;
use muse_core::prelude::{amuse_workload, AMuseConfig, NodeId, QueryId, Workload};
use muse_core::query::parser::ParserOptions;
use muse_core::query::Query;
use muse_verify::{
    verify_deployment, verify_graph, Code, MigrationPlan, MigrationSpans, QuerySpanInfo, Report,
    Severity, Span, VerifyConfig,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("query") => run_query(&args[1..]),
        Some("plan") => run_plan(&args[1..]),
        Some("migrate") => run_migrate(&args[1..]),
        Some("codes") => run_codes(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
muse-verify: static verification of MuSE queries, graphs, and deployments

USAGE:
  muse-verify query <file.sase>... [--json]
  muse-verify plan <file.sase>... --network <file.net>
              [--algo amuse|amuse-star] [--no-completeness] [--limit N] [--json]
  muse-verify migrate <old.sase> <new.sase> --network <file.net>
              [--network-new <file.net>] [--algo amuse|amuse-star] [--json]
  muse-verify codes [--json]

Query files hold one SASE query per non-empty, non-# line.
Network files: `node <idx> <Type>...` and `rate <Type> <f64>` lines.
Exit status: 0 clean (warnings/lints allowed), 1 errors found, 2 bad input.

`migrate` runs the plan-diff migration-safety pass (MG025x): it plans both
query files over the network, matches physical tasks across the two plans,
and decides whether a snapshot taken under the old plan can be mapped onto
the new one. Query identity is positional (line N of the old file pairs
with line N of the new file): append new queries at the end and remove from
the end, or the per-query match attribution genuinely changes and is
flagged. Exit status: 0 when the migration is certified (replay warnings
allowed), 1 when it must be refused, 2 on usage or input errors.
";

struct Opts {
    files: Vec<String>,
    network: Option<String>,
    network_new: Option<String>,
    algo: String,
    json: bool,
    check_completeness: bool,
    binding_limit: usize,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        files: Vec::new(),
        network: None,
        network_new: None,
        algo: "amuse".to_string(),
        json: false,
        check_completeness: true,
        binding_limit: VerifyConfig::default().binding_limit,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--no-completeness" => opts.check_completeness = false,
            "--network" => {
                opts.network = Some(
                    it.next()
                        .ok_or("--network requires a file argument")?
                        .clone(),
                );
            }
            "--network-new" => {
                opts.network_new = Some(
                    it.next()
                        .ok_or("--network-new requires a file argument")?
                        .clone(),
                );
            }
            "--algo" => {
                let v = it.next().ok_or("--algo requires a value")?;
                if v != "amuse" && v != "amuse-star" {
                    return Err(format!("unknown algorithm '{v}'"));
                }
                opts.algo = v.clone();
            }
            "--limit" => {
                let v = it.next().ok_or("--limit requires a value")?;
                opts.binding_limit = v.parse().map_err(|_| format!("bad --limit '{v}'"))?;
            }
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if opts.files.is_empty() {
        return Err("no query files given".to_string());
    }
    Ok(opts)
}

/// One query's source text plus where it came from.
struct Source {
    file: String,
    line: usize,
    text: String,
}

fn read_queries(files: &[String]) -> Result<Vec<Source>, String> {
    let mut out = Vec::new();
    for file in files {
        let content =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        for (i, line) in content.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            out.push(Source {
                file: file.clone(),
                line: i + 1,
                text: trimmed.to_string(),
            });
        }
    }
    if out.is_empty() {
        return Err("no queries found in the given files".to_string());
    }
    Ok(out)
}

/// Lints every query; returns the parsed queries (None where parsing
/// failed) alongside the per-query reports.
fn lint_all(sources: &[Source], catalog: &mut Catalog) -> (Vec<Option<Query>>, Vec<Report>) {
    let options = ParserOptions {
        auto_register_types: true,
        auto_register_attrs: true,
        ..Default::default()
    };
    let mut queries = Vec::new();
    let mut reports = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        let mut report = Report::new();
        let q = muse_verify::lint_query_text(
            &src.text,
            QueryId(i as u32),
            catalog,
            &options,
            &mut report,
        );
        report.sort();
        queries.push(q);
        reports.push(report);
    }
    (queries, reports)
}

fn emit(sources: &[Source], reports: &[Report], plan: Option<&Report>, json: bool) {
    if json {
        let mut out = String::from("{\"queries\":[");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{:?},\"line\":{},\"diagnostics\":{}}}",
                sources[i].file,
                sources[i].line,
                r.to_json()
            ));
        }
        out.push_str("],\"plan\":");
        out.push_str(&plan.map(Report::to_json).unwrap_or_else(|| "null".into()));
        out.push('}');
        println!("{out}");
        return;
    }
    for (src, report) in sources.iter().zip(reports) {
        if report.is_empty() {
            continue;
        }
        println!("-- {}:{}: {}", src.file, src.line, src.text);
        print!("{}", report.render_pretty(Some(&src.text)));
    }
    if let Some(plan) = plan {
        if !plan.is_empty() {
            println!("-- plan");
            print!("{}", plan.render_pretty(None));
        }
    }
    let total: usize =
        reports.iter().map(Report::len).sum::<usize>() + plan.map(Report::len).unwrap_or(0);
    if total == 0 {
        println!("clean: no diagnostics");
    }
}

fn exit_for(reports: &[Report], plan: Option<&Report>) -> ExitCode {
    let worst = reports
        .iter()
        .chain(plan)
        .filter_map(Report::max_severity)
        .max();
    match worst {
        Some(Severity::Error) => ExitCode::from(2),
        Some(Severity::Warning) => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    }
}

fn run_query(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sources = match read_queries(&opts.files) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut catalog = Catalog::new();
    let (_, reports) = lint_all(&sources, &mut catalog);
    emit(&sources, &reports, None, opts.json);
    exit_for(&reports, None)
}

fn run_plan(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(net_file) = opts.network.clone() else {
        eprintln!("plan requires --network <file.net>\n{USAGE}");
        return ExitCode::from(2);
    };
    let sources = match read_queries(&opts.files) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut catalog = Catalog::new();
    // Register network types before parsing queries so ids are shared.
    let net_spec = match std::fs::read_to_string(&net_file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {net_file}: {e}");
            return ExitCode::from(2);
        }
    };
    let raw = match parse_network_spec(&net_spec, &mut catalog) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{net_file}: {e}");
            return ExitCode::from(2);
        }
    };
    let (queries, reports) = lint_all(&sources, &mut catalog);
    if queries.iter().any(Option::is_none) || reports.iter().any(Report::has_errors) {
        // Parse failures or query-level errors: no plan to build.
        emit(&sources, &reports, None, opts.json);
        return exit_for(&reports, None);
    }
    let network = raw.build(catalog.num_event_types());
    let queries: Vec<Query> = queries.into_iter().flatten().collect();
    let workload = match Workload::new(catalog, queries) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("invalid workload: {e}");
            return ExitCode::from(2);
        }
    };
    let config = if opts.algo == "amuse-star" {
        AMuseConfig::star()
    } else {
        AMuseConfig::default()
    };
    let plan = match amuse_workload(&workload, &network, &config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("plan construction failed: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = VerifyConfig {
        check_completeness: opts.check_completeness,
        binding_limit: opts.binding_limit,
        ..VerifyConfig::default()
    };
    let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
    let mut plan_report = Report::new();
    if verify_graph(&plan.merged, &ctx, &cfg, &mut plan_report) {
        verify_deployment(&plan.merged, &ctx, &cfg, &mut plan_report);
    }
    plan_report.sort();
    emit(&sources, &reports, Some(&plan_report), opts.json);
    exit_for(&reports, Some(&plan_report))
}

fn run_codes(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--json") {
        let mut out = String::from("[");
        for (i, &code) in Code::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"title\":{:?}}}",
                code,
                code.severity(),
                code.title()
            ));
        }
        out.push(']');
        println!("{out}");
    } else {
        for &code in Code::ALL {
            println!("{} {:8} {}", code, code.severity(), code.title());
        }
    }
    ExitCode::SUCCESS
}

/// Builds the placed plan for one query file over a network, sharing the
/// catalog so type ids agree across the old and new sides.
fn plan_for_migration(
    sources: &[Source],
    net_spec: &RawNetwork,
    catalog: &mut Catalog,
    algo: &str,
) -> Result<(Workload, muse_core::algorithms::multi_query::WorkloadPlan), String> {
    let (queries, reports) = lint_all(sources, catalog);
    if queries.iter().any(Option::is_none) || reports.iter().any(Report::has_errors) {
        let mut msg = String::from("query errors:\n");
        for (src, r) in sources.iter().zip(&reports) {
            if r.has_errors() {
                msg.push_str(&format!("-- {}:{}: {}\n", src.file, src.line, src.text));
                msg.push_str(&r.render_pretty(Some(&src.text)));
            }
        }
        return Err(msg);
    }
    let network = net_spec.build(catalog.num_event_types());
    let queries: Vec<Query> = queries.into_iter().flatten().collect();
    let workload = Workload::new(catalog.clone(), queries).map_err(|e| format!("{e}"))?;
    let config = if algo == "amuse-star" {
        AMuseConfig::star()
    } else {
        AMuseConfig::default()
    };
    let plan = amuse_workload(&workload, &network, &config)
        .map_err(|e| format!("planning failed: {e}"))?;
    Ok((workload, plan))
}

/// Derives caret spans for the new plan's queries: the concatenated query
/// buffer plus, per query, best-effort spans of the `WITHIN` clause and the
/// `WHERE` conjuncts (found textually — the parser's own spans cover
/// lint-time diagnostics; migration diagnostics only need to point at the
/// edited clause).
fn spans_for(sources: &[Source]) -> (String, MigrationSpans) {
    let mut buf = String::new();
    let mut spans = MigrationSpans::default();
    for (i, src) in sources.iter().enumerate() {
        let start = buf.len();
        let text = &src.text;
        buf.push_str(text);
        buf.push('\n');
        let all = Span::from_range(start..start + text.len());
        let within = text.find("WITHIN");
        let window = within.map(|p| {
            let tail = text[p..].trim_end();
            Span::from_range(start + p..start + p + tail.len())
        });
        let mut predicates = Vec::new();
        if let Some(wp) = text.find("WHERE") {
            let clause_start = wp + "WHERE".len();
            let clause_end = within.unwrap_or(text.len()).max(clause_start);
            let clause = &text[clause_start..clause_end];
            let mut seg_off = 0usize;
            for seg in clause.split(" AND ") {
                let trimmed = seg.trim();
                if !trimmed.is_empty() {
                    let rel = clause[seg_off..]
                        .find(trimmed)
                        .map(|r| seg_off + r)
                        .unwrap_or(seg_off);
                    predicates.push(Span::from_range(
                        start + clause_start + rel..start + clause_start + rel + trimmed.len(),
                    ));
                }
                seg_off += seg.len() + " AND ".len();
            }
        }
        spans.per_query.insert(
            QueryId(i as u32),
            QuerySpanInfo {
                all,
                window,
                predicates,
            },
        );
    }
    (buf, spans)
}

fn task_key_json(k: &Option<muse_verify::TaskKey>) -> String {
    match k {
        None => "null".to_string(),
        Some(k) => format!(
            "{{\"node\":{},\"stream_sig\":{},\"prims\":{},\"window\":{}}}",
            k.node.0, k.stream_sig, k.prims, k.window
        ),
    }
}

fn migration_plan_json(plan: &MigrationPlan) -> String {
    let actions: Vec<String> = plan
        .actions
        .iter()
        .map(|a| {
            format!(
                "{{\"from\":{},\"to\":{},\"mode\":\"{:?}\",\"detail\":{:?}}}",
                task_key_json(&a.from),
                task_key_json(&a.to),
                a.mode,
                a.detail
            )
        })
        .collect();
    let dropped: Vec<String> = plan
        .dropped_queries
        .iter()
        .map(|q| q.0.to_string())
        .collect();
    let added: Vec<String> = plan.added_queries.iter().map(|q| q.0.to_string()).collect();
    format!(
        "{{\"safe\":{},\"needs_replay\":{},\"matched\":{},\"actions\":[{}],\
         \"dropped_queries\":[{}],\"added_queries\":[{}]}}",
        plan.safe,
        plan.needs_replay,
        plan.matched,
        actions.join(","),
        dropped.join(","),
        added.join(",")
    )
}

fn run_migrate(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.files.len() != 2 {
        eprintln!("migrate needs exactly two query files (old, new)\n{USAGE}");
        return ExitCode::from(2);
    }
    let Some(net_file) = opts.network.clone() else {
        eprintln!("migrate requires --network <file.net>\n{USAGE}");
        return ExitCode::from(2);
    };
    let read_net = |file: &str, catalog: &mut Catalog| -> Result<RawNetwork, String> {
        let spec = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        parse_network_spec(&spec, catalog).map_err(|e| format!("{file}: {e}"))
    };
    let mut catalog = Catalog::new();
    let old_net = match read_net(&net_file, &mut catalog) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let new_net = match &opts.network_new {
        Some(f) => match read_net(f, &mut catalog) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => RawNetwork {
            nodes: old_net.nodes.clone(),
            rates: old_net.rates.clone(),
            num_nodes: old_net.num_nodes,
        },
    };
    let old_sources = match read_queries(std::slice::from_ref(&opts.files[0])) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", opts.files[0]);
            return ExitCode::from(2);
        }
    };
    let new_sources = match read_queries(std::slice::from_ref(&opts.files[1])) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", opts.files[1]);
            return ExitCode::from(2);
        }
    };
    let (old_workload, old_plan) =
        match plan_for_migration(&old_sources, &old_net, &mut catalog, &opts.algo) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: {e}", opts.files[0]);
                return ExitCode::from(2);
            }
        };
    let (new_workload, new_plan) =
        match plan_for_migration(&new_sources, &new_net, &mut catalog, &opts.algo) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: {e}", opts.files[1]);
                return ExitCode::from(2);
            }
        };
    let old_network = old_net.build(catalog.num_event_types());
    let new_network = new_net.build(catalog.num_event_types());
    let (new_buf, spans) = spans_for(&new_sources);
    let a_ctx = PlanContext::new(old_workload.queries(), &old_network, &old_plan.table);
    let b_ctx = PlanContext::new(new_workload.queries(), &new_network, &new_plan.table);
    let (report, plan) = muse_verify::verify_migration(
        &old_plan.merged,
        &a_ctx,
        &new_plan.merged,
        &b_ctx,
        Some(&spans),
    );
    if opts.json {
        println!(
            "{{\"report\":{},\"plan\":{}}}",
            report.to_json(),
            migration_plan_json(&plan)
        );
    } else {
        print!("{}", report.render_pretty(Some(&new_buf)));
        let verdict = if plan.safe {
            if plan.needs_replay {
                "certified: state carries over; replay the widened window horizon"
            } else {
                "certified: state carries over unchanged"
            }
        } else {
            "refused: snapshot state cannot be mapped onto the new plan"
        };
        println!(
            "migration {verdict} ({} matched task(s), {} dropped / {} added query(ies))",
            plan.matched,
            plan.dropped_queries.len(),
            plan.added_queries.len()
        );
    }
    if plan.safe {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Parsed `.net` lines, before the catalog's final type count is known.
struct RawNetwork {
    nodes: Vec<(usize, Vec<muse_core::prelude::EventTypeId>)>,
    rates: Vec<(muse_core::prelude::EventTypeId, f64)>,
    num_nodes: usize,
}

use muse_core::prelude::EventTypeId;
use muse_core::prelude::Network;
use muse_core::types::MAX_NODES;

impl RawNetwork {
    fn build(&self, num_types: usize) -> Network {
        let mut network = Network::new(self.num_nodes, num_types);
        for (node, types) in &self.nodes {
            for &ty in types {
                network.set_generates(NodeId(*node as u16), ty);
            }
        }
        for &(ty, rate) in &self.rates {
            network.set_rate(ty, rate);
        }
        network
    }
}

fn parse_network_spec(spec: &str, catalog: &mut Catalog) -> Result<RawNetwork, String> {
    let mut nodes: Vec<(usize, Vec<EventTypeId>)> = Vec::new();
    let mut rates: Vec<(EventTypeId, f64)> = Vec::new();
    for (i, line) in spec.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("node") => {
                let idx: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(format!("line {}: node needs an index", i + 1))?;
                if idx >= MAX_NODES {
                    return Err(format!(
                        "line {}: node index {idx} out of range (at most {MAX_NODES} nodes)",
                        i + 1
                    ));
                }
                let mut types = Vec::new();
                for name in parts {
                    types.push(
                        catalog
                            .event_type_or_add(name)
                            .map_err(|e| format!("line {}: {e}", i + 1))?,
                    );
                }
                nodes.push((idx, types));
            }
            Some("rate") => {
                let name = parts
                    .next()
                    .ok_or(format!("line {}: rate needs a type name", i + 1))?;
                let rate: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(format!("line {}: rate needs a number", i + 1))?;
                if !(rate.is_finite() && rate >= 0.0) {
                    return Err(format!(
                        "line {}: rate must be finite and ≥ 0, got {rate}",
                        i + 1
                    ));
                }
                let ty = catalog
                    .event_type_or_add(name)
                    .map_err(|e| format!("line {}: {e}", i + 1))?;
                rates.push((ty, rate));
            }
            Some(other) => return Err(format!("line {}: unknown directive '{other}'", i + 1)),
            None => {}
        }
    }
    if nodes.is_empty() {
        return Err("network has no 'node' lines".to_string());
    }
    let num_nodes = nodes.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
    Ok(RawNetwork {
        nodes,
        rates,
        num_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Parses `spec` and, when it parses, builds the network as the CLI
    /// does once the queries have registered their types.
    fn parse_and_build(spec: &str) -> Result<Network, String> {
        let mut catalog = Catalog::new();
        let raw = parse_network_spec(spec, &mut catalog)?;
        Ok(raw.build(catalog.num_event_types()))
    }

    #[test]
    fn parses_a_valid_network() {
        let network =
            parse_and_build("# comment\nnode 0 C F\nnode 2 L\nrate C 100\nrate F 0.5\n").unwrap();
        assert_eq!(network.num_nodes(), 3);
        assert_eq!(network.num_types(), 3);
    }

    #[test]
    fn hostile_lines_are_line_errors() {
        let last = MAX_NODES - 1;
        assert!(parse_and_build(&format!("node {last} X")).is_ok());
        for (spec, message) in [
            ("node 200 X", "line 1: node index 200 out of range"),
            (
                "node 0 X\nnode 18446744073709551615 X",
                "line 2: node index 18446744073709551615 out of range",
            ),
            (
                "node 0 X\nrate X NaN",
                "line 2: rate must be finite and ≥ 0, got NaN",
            ),
            (
                "node 0 X\nrate X -3",
                "line 2: rate must be finite and ≥ 0, got -3",
            ),
            (
                "node 0 X\nrate X inf",
                "line 2: rate must be finite and ≥ 0, got inf",
            ),
            (
                "node 0 X\nrate X -inf",
                "line 2: rate must be finite and ≥ 0, got -inf",
            ),
            ("node -1 X", "line 1: node needs an index"),
            ("node 18446744073709551616 X", "line 1: node needs an index"),
            ("node 0 X\nrate X", "line 2: rate needs a number"),
            ("edge 0 1", "line 1: unknown directive 'edge'"),
            ("", "network has no 'node' lines"),
        ] {
            let err = parse_and_build(spec).expect_err(spec);
            assert!(err.starts_with(message), "{spec:?}: {err}");
        }
    }

    /// Numbers at and past the limits that used to panic.
    #[rustfmt::skip]
    const NUMBERS: &[&str] = &[
        "0", "1", "2", "127", "128", "200", "-1", "-3", "0.5", "1e3", "NaN", "nan", "inf",
        "-inf", "1e309", "18446744073709551615", "18446744073709551616",
    ];

    const NAMES: &[&str] = &["X", "Y", "Z", "_", "node", "rate"];

    /// A well-formed `node` or `rate` line over [`NUMBERS`] and [`NAMES`], a
    /// comment, or a soup of those words and printable ASCII runs.
    fn line(rng: &mut StdRng) -> String {
        fn pick(rng: &mut StdRng, words: &[&str]) -> String {
            words[rng.gen_range(0..words.len())].to_string()
        }
        match rng.gen_range(0..5) {
            0 | 1 => {
                let types: Vec<String> =
                    (0..rng.gen_range(0..3)).map(|_| pick(rng, NAMES)).collect();
                format!("node {} {}", pick(rng, NUMBERS), types.join(" "))
            }
            2 => format!("rate {} {}", pick(rng, NAMES), pick(rng, NUMBERS)),
            3 => format!("# {}", pick(rng, NUMBERS)),
            _ => {
                let words: Vec<String> = (0..rng.gen_range(0..8))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => pick(rng, NUMBERS),
                        1 => pick(rng, NAMES),
                        _ => (0..rng.gen_range(1..12))
                            .map(|_| char::from(b' ' + rng.gen_range(0..95u8)))
                            .collect(),
                    })
                    .collect();
                words.join(" ")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5_000))]

        /// No `.net` text panics the parser or the network it builds:
        /// every input is a network or a `line N: …` style error.
        #[test]
        fn arbitrary_lines_never_panic(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec: Vec<String> = (0..rng.gen_range(0..6)).map(|_| line(&mut rng)).collect();
            let spec = spec.join("\n");
            let outcome = catch_unwind(AssertUnwindSafe(|| parse_and_build(&spec).map(|_| ())));
            prop_assert!(outcome.is_ok(), "{spec:?} panicked");
        }
    }
}
