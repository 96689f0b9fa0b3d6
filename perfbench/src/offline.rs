//! `offline_build`: the paper's Table 5 offline stage, repeated.
//!
//! Each round turns one DBPEDIA-like N-Triples document into a queryable
//! engine, then restarts from the engine's snapshot (`to_snapshot` is not
//! timed; `from_snapshot` + `AmberEngine::from_graph` is), then runs a
//! fixed probe set on the restarted engine. The restarted engine must
//! have the loaded engine's statistics and the first loaded engine's
//! counts on every probe; the probes are also this workload's latency and
//! throughput, one window per round.

use crate::inputs::{self, QuerySource, Rng};
use crate::layers::{self, ReplayItem, Setup};
use crate::trace::{self, Windows};
use crate::{serving, Args, Report};
use amber::{AmberEngine, ExecOptions, QueryRequest};
use amber_datagen::Benchmark;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DBPEDIA_SCALE: u32 = 30;
/// Distinct probe queries per class of the paper's DBPEDIA sweep.
const PROBES_PER_CLASS: usize = 120;
const TIMEOUT: Duration = Duration::from_secs(10);
/// Rounds (build, restart, probes) a run makes at least.
const MIN_ROUNDS: usize = 5;

/// New queries of every paper class, with their counts on `engine`. A
/// query without answers is a failure.
fn reference_counts(
    seed: u64,
    engine: &AmberEngine,
    options: &ExecOptions,
    report: &mut Report,
) -> Vec<(String, u128)> {
    let mut rng = Rng::new(seed);
    let texts = QuerySource::new(engine.rdf(), seed).mix(
        &inputs::PAPER_CLASSES,
        PROBES_PER_CLASS,
        &mut rng,
    );
    let mut probes = Vec::with_capacity(texts.len());
    for text in texts {
        match engine.run(&QueryRequest::sparql(&text).with_options(options.clone())) {
            Ok(o) if o.status.is_complete() && o.embedding_count > 0 => {
                probes.push((text, o.embedding_count))
            }
            Ok(o) => {
                report.attempted += 1;
                report.fail(format!(
                    "probe: {:?} with {} embeddings: {text}",
                    o.status, o.embedding_count
                ));
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("probe: {e}: {text}"));
            }
        }
    }
    probes
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dbpedia = inputs::dataset(Benchmark::Dbpedia, DBPEDIA_SCALE, args.seed);
    eprintln!(
        "perfbench: offline_build: {} triples, {} bytes",
        dbpedia.triples,
        dbpedia.text.len()
    );

    let mut setup = Setup {
        triples: dbpedia.triples,
        ..Setup::default()
    };
    let options = ExecOptions::benchmark(TIMEOUT).with_threads(2);
    let mut windows = Windows::default();
    // The probe set and its counts on the first N-Triples-loaded engine.
    let mut probes: Vec<(String, u128)> = Vec::new();
    let mut graph = None;
    let started = Instant::now();
    while windows.len() < MIN_ROUNDS || started.elapsed() < args.seconds {
        let t = Instant::now();
        let engine = layers::load(&dbpedia.text);
        let secs = t.elapsed().as_secs_f64();
        setup.setup_s.push(secs);
        setup.load_s.push(secs);
        if probes.is_empty() {
            setup.resident_bytes = layers::resident_bytes(&engine);
            probes = reference_counts(args.seed, &engine, &options, &mut report);
        }
        let restored = layers::restart(&[&engine], &mut setup, &mut report).remove(0);
        drop(engine);

        let mut latencies_ms = Vec::with_capacity(probes.len());
        let mut busy = Duration::ZERO;
        let mut completed = 0;
        for (text, want) in &probes {
            let request = QueryRequest::sparql(text).with_options(options.clone());
            let t = Instant::now();
            let outcome = restored.run(&request);
            let elapsed = t.elapsed();
            busy += elapsed;
            latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            report.attempted += 1;
            match outcome {
                Ok(o) if o.status.is_complete() && o.embedding_count == *want => completed += 1,
                Ok(o) => report.fail(format!(
                    "probe: restored engine counted {} ({:?}), loaded engine {want}: {text}",
                    o.embedding_count, o.status
                )),
                Err(e) => report.fail(format!("probe: {e}: {text}")),
            }
        }
        windows.push(completed, busy.as_secs_f64(), &latencies_ms);
        graph = Some(restored.shared_rdf());
    }
    eprintln!(
        "perfbench: offline_build: {} rounds in {:.2} s",
        setup.load_s.len(),
        started.elapsed().as_secs_f64()
    );
    let qps = windows.qps();

    if !args.trace {
        setup.report(&mut report);
        windows.report(&mut report);
        return report;
    }

    let epoch = Instant::now();
    let graph = graph.expect("at least one round");
    let mut tracer = layers::process_tracer(epoch);
    let items: Vec<ReplayItem<'_>> = probes
        .iter()
        .map(|(text, count)| ReplayItem {
            engine: 0,
            text,
            expected: *count,
        })
        .collect();
    let traced_qps = layers::engine_replay(
        &[Arc::clone(&graph)],
        &items,
        &options,
        &mut tracer,
        &mut report,
    );
    report.add(
        "trace.overhead_ratio",
        trace::ratio(qps, traced_qps),
        "ratio",
    );
    let mut load_tracer = layers::process_tracer(epoch);
    layers::load_layers(&dbpedia.text, &mut load_tracer, &mut report);
    tracer.absorb(load_tracer);
    let pool: Vec<String> = probes
        .iter()
        .take(serving::POOL)
        .map(|p| p.0.clone())
        .collect();
    tracer.absorb(serving::peel(args.seed, &graph, &pool, epoch, &mut report));
    let path = crate::output_dir().join("trace-offline_build.tsv");
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    report
}
