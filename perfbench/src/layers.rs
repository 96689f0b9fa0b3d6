//! Measurements every workload shares: set-up and restart, the split of
//! loading into its layers, and the traced per-query engine replay.

use crate::trace::{self, AllocScope, Tracer};
use crate::{alloc, Report};
use amber::{AmberEngine, ExecOptions, QueryRequest};
use amber_index::IndexSet;
use amber_multigraph::RdfGraph;
use amber_util::HeapSize;
use std::sync::Arc;
use std::time::Instant;

/// How many times each run sets up to report a median.
pub const SETUP_REPS: usize = 7;
/// How many times a traced pass loads as separate layer calls.
const LAYER_REPS: usize = 3;

/// The end-to-end figures of setting up and restarting engines.
#[derive(Default)]
pub struct Setup {
    /// Seconds from N-Triples text to a ready engine (and server), per rep.
    pub setup_s: Vec<f64>,
    /// Seconds from N-Triples text to a ready engine, per rep.
    pub load_s: Vec<f64>,
    /// Seconds from snapshot bytes to a ready engine, per rep.
    pub restart_s: Vec<f64>,
    pub triples: usize,
    /// Multigraph plus index bytes of the loaded engines.
    pub resident_bytes: usize,
}

impl Setup {
    /// The end-to-end metrics all workloads share, except latency and
    /// throughput: `setup_s` is the median of its repetitions, ingest and
    /// restart times the lower quartile (see [`trace::lower_quartile`]).
    pub fn report(&self, report: &mut Report) {
        report.add("setup_s", trace::median(&self.setup_s), "s");
        let load = trace::lower_quartile(&self.load_s);
        report.add(
            "ingest_triples_per_s",
            trace::ratio(self.triples as f64, load),
            "1/s",
        );
        report.add(
            "snapshot_restart_s",
            trace::lower_quartile(&self.restart_s),
            "s",
        );
        report.add(
            "resident_bytes_per_triple",
            trace::ratio(self.resident_bytes as f64, self.triples as f64),
            "B",
        );
    }
}

/// Load an N-Triples document into a ready engine.
pub fn load(text: &str) -> AmberEngine {
    AmberEngine::load_ntriples(text).expect("generated N-Triples load")
}

pub fn resident_bytes(engine: &AmberEngine) -> usize {
    let offline = engine.offline_stats();
    offline.database_bytes + offline.index_bytes
}

/// Restart `engines` from their snapshots, recording the seconds from
/// snapshot bytes to ready engines as one sample (encoding is not
/// timed), and return the restarted engines. A restart that does not
/// reproduce the graph statistics is a failure.
pub fn restart(
    engines: &[&AmberEngine],
    setup: &mut Setup,
    report: &mut Report,
) -> Vec<AmberEngine> {
    let snapshots: Vec<Vec<u8>> = engines.iter().map(|e| e.rdf().to_snapshot()).collect();
    let t = Instant::now();
    let restored: Vec<AmberEngine> = snapshots
        .iter()
        .map(|bytes| {
            let rdf = RdfGraph::from_snapshot(bytes).expect("snapshot of a loaded graph decodes");
            AmberEngine::from_graph(rdf)
        })
        .collect();
    setup.restart_s.push(t.elapsed().as_secs_f64());
    for (again, engine) in restored.iter().zip(engines) {
        report.attempted += 1;
        if again.rdf().stats() != engine.rdf().stats() {
            report.fail(format!(
                "restart: stats {:?} != {:?}",
                again.rdf().stats(),
                engine.rdf().stats()
            ));
        }
    }
    restored
}

/// Load `text` [`LAYER_REPS`] times as separate layer calls — parse,
/// graph build, index build, snapshot encode and decode — and report each
/// layer.
pub fn load_layers(text: &str, tracer: &mut Tracer, report: &mut Report) {
    let mut index_parts = [Vec::new(), Vec::new(), Vec::new()];
    let mut sizes = (0, 0, 0);
    for rep in 0..LAYER_REPS {
        let root = tracer.begin("load", None, rep as u64);
        let triples = tracer.span("rdf_model.parse_ntriples", Some(root), rep as u64, || {
            rdf_model::parse_ntriples(text).expect("generated N-Triples parse")
        });
        let rdf = tracer.span("multigraph.from_triples", Some(root), rep as u64, || {
            RdfGraph::from_triples(&triples)
        });
        drop(triples);
        let index = tracer.span("index.build", Some(root), rep as u64, || {
            IndexSet::build(&rdf)
        });
        tracer.end(root);
        let stats = index.build_stats();
        index_parts[0].push(stats.attribute_time.as_secs_f64());
        index_parts[1].push(stats.signature_time.as_secs_f64());
        index_parts[2].push(stats.neighborhood_time.as_secs_f64());
        let snapshot = tracer.span("multigraph.to_snapshot", None, rep as u64, || {
            rdf.to_snapshot()
        });
        let restored = tracer.span("multigraph.from_snapshot", None, rep as u64, || {
            RdfGraph::from_snapshot(&snapshot).expect("snapshot decodes")
        });
        report.attempted += 1;
        if restored.stats() != rdf.stats() {
            report.fail("load layers: snapshot round trip changed the graph");
        }
        sizes = (rdf.heap_size(), snapshot.len(), index.heap_size());
    }
    let secs = |name: &str| -> Vec<f64> { tracer.micros(name).iter().map(|us| us / 1e6).collect() };
    report.timing(
        "rdf_model.parse_ntriples_s",
        &secs("rdf_model.parse_ntriples"),
        "s",
    );
    report.timing(
        "multigraph.from_triples_s",
        &secs("multigraph.from_triples"),
        "s",
    );
    report.timing(
        "multigraph.to_snapshot_s",
        &secs("multigraph.to_snapshot"),
        "s",
    );
    report.timing(
        "multigraph.from_snapshot_s",
        &secs("multigraph.from_snapshot"),
        "s",
    );
    report.exact("multigraph.database_bytes", sizes.0 as f64, "B");
    report.exact("multigraph.snapshot_bytes", sizes.1 as f64, "B");
    report.timing("index.build_s", &secs("index.build"), "s");
    report.timing("index.attribute_s", &index_parts[0], "s");
    report.timing("index.signature_s", &index_parts[1], "s");
    report.timing("index.neighborhood_s", &index_parts[2], "s");
    report.exact("index.bytes", sizes.2 as f64, "B");
}

/// One query of an engine replay: which engine, the text, and the count
/// the untraced pass got for it.
pub struct ReplayItem<'a> {
    pub engine: usize,
    pub text: &'a str,
    pub expected: u128,
}

/// Replay `items` on fresh engines over the same graphs, splitting each
/// query into parse → canonicalize → prepare → execute of the prepared
/// plan, and reading the pool counters after each query. Returns the
/// queries per second of the traced replay.
pub fn engine_replay(
    graphs: &[Arc<RdfGraph>],
    items: &[ReplayItem<'_>],
    options: &ExecOptions,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let engines: Vec<AmberEngine> = graphs
        .iter()
        .map(|rdf| AmberEngine::from_graph(Arc::clone(rdf)))
        .collect();
    let mut sessions: Vec<_> = engines.iter().map(|e| e.create_session(options)).collect();
    let (mut nodes, mut critical, mut steals, mut splits) = (0u64, 0u64, 0u64, 0u64);
    let mut per_worker: Vec<u64> = Vec::new();
    let mut busy_us = 0.0;
    alloc::arm(true);
    for (i, item) in items.iter().enumerate() {
        let engine = &engines[item.engine];
        let session = &mut sessions[item.engine];
        let before = session.pool_stats().clone();
        let id = i as u64;
        let root = tracer.begin("query", None, id);
        let parsed = tracer.span("sparql.parse", Some(root), id, || {
            amber_sparql::parse_select(item.text)
        });
        let outcome = parsed
            .map_err(|e| amber::Error::from(amber::EngineError::from(e)))
            .and_then(|query| {
                tracer.span("sparql.canonicalize", Some(root), id, || {
                    amber_sparql::canonicalize(&query)
                });
                let plan =
                    tracer.span("core.prepare", Some(root), id, || engine.prepare(&query))?;
                tracer.span("core.execute", Some(root), id, || {
                    engine.run_in(
                        &QueryRequest::prepared(&plan).with_options(options.clone()),
                        session,
                    )
                })
            });
        tracer.end(root);
        busy_us += tracer.spans[root].micros();
        report.attempted += 1;
        match outcome {
            Ok(o) if o.status.is_complete() && o.embedding_count == item.expected => {}
            Ok(o) => report.fail(format!(
                "replay: {} embeddings ({:?}), untraced pass counted {}: {}",
                o.embedding_count, o.status, item.expected, item.text
            )),
            Err(e) => report.fail(format!("replay: {e}: {}", item.text)),
        }
        let after = session.pool_stats();
        nodes += after.total_nodes() - before.total_nodes();
        critical += after.critical_path_nodes - before.critical_path_nodes;
        steals += after.steals - before.steals;
        splits += after.split_tasks - before.split_tasks;
    }
    alloc::arm(false);
    for session in &sessions {
        for (slot, n) in session.pool_stats().nodes_per_worker.iter().enumerate() {
            if per_worker.len() <= slot {
                per_worker.resize(slot + 1, 0);
            }
            per_worker[slot] += n;
        }
    }

    let queries = items.len() as f64;
    report.timing("sparql.parse_us", &tracer.micros("sparql.parse"), "us");
    report.timing(
        "sparql.canonicalize_us",
        &tracer.micros("sparql.canonicalize"),
        "us",
    );
    report.timing("core.prepare_us", &tracer.micros("core.prepare"), "us");
    report.timing("core.execute_us", &tracer.micros("core.execute"), "us");
    let allocs = |name: &str| -> alloc::Count {
        tracer
            .named(name)
            .fold(alloc::Count::default(), |acc, s| alloc::Count {
                allocs: acc.allocs + s.allocs.allocs,
                bytes: acc.bytes + s.allocs.bytes,
            })
    };
    let (prepare, execute) = (allocs("core.prepare"), allocs("core.execute"));
    report.add(
        "sparql.parse_allocs_per_call",
        trace::ratio(allocs("sparql.parse").allocs as f64, queries),
        "count",
    );
    report.add(
        "core.prepare_allocs_per_call",
        trace::ratio(prepare.allocs as f64, queries),
        "count",
    );
    report.add(
        "core.execute_allocs_per_call",
        trace::ratio(execute.allocs as f64, queries),
        "count",
    );
    report.add(
        "core.allocs_per_query",
        trace::ratio((prepare.allocs + execute.allocs) as f64, queries),
        "count",
    );
    report.add(
        "core.alloc_bytes_per_query",
        trace::ratio((prepare.bytes + execute.bytes) as f64, queries),
        "B",
    );
    report.exact("core.search_nodes", nodes as f64, "count");
    let candidates = sessions.iter().fold((0u64, 0u64), |acc, s| {
        let c = s.cache_stats();
        (acc.0 + c.hits, acc.1 + c.hits + c.misses)
    });
    report.add(
        "core.candidate_hit_rate",
        trace::ratio(candidates.0 as f64, candidates.1 as f64),
        "ratio",
    );
    report.add("exec.critical_path_nodes", critical as f64, "count");
    report.add("exec.steals", steals as f64, "count");
    report.add("exec.split_tasks", splits as f64, "count");
    let worker_nodes: Vec<f64> = per_worker.iter().map(|&n| n as f64).collect();
    let max = worker_nodes.iter().copied().fold(0.0, f64::max);
    report.add(
        "exec.worker_node_imbalance",
        trace::ratio(max, trace::mean(&worker_nodes)),
        "ratio",
    );
    trace::ratio(queries, busy_us / 1e6)
}

/// A recorder for single-caller passes.
pub fn process_tracer(epoch: Instant) -> Tracer {
    Tracer::new(epoch, AllocScope::Process)
}
