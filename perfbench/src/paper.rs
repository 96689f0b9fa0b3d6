//! `paper_queries`: the paper's §7.2 query classes, embedded, one caller
//! in a closed loop.
//!
//! DBPEDIA-like data with star and complex queries at k = 10…50, and
//! LUBM-like data with complex queries at k = 4 and 5. Query texts do not
//! repeat within a window, and run count-only (`ExecOptions::benchmark`)
//! with two threads, so the plan and result caches are bypassed and
//! `core` and `exec` do the work. After the timed loop, every count is checked against a
//! one-thread pass.

use crate::inputs::{self, QuerySource, Rng};
use crate::layers::{self, ReplayItem, Setup, SETUP_REPS};
use crate::trace::{self, Tracer, Windows};
use crate::{serving, Args, Report};
use amber::{AmberEngine, ExecOptions, QueryRequest};
use amber_datagen::{Benchmark, QueryShape};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const DBPEDIA_SCALE: u32 = 20;
/// Small enough that the LUBM heavy tail (type joins whose counts reach
/// billions) costs milliseconds, so one run samples it hundreds of times.
const LUBM_SCALE: u32 = 3;
/// LUBM's department and faculty counts are random per university; at a
/// small scale they would make every heavy query of one seed costlier
/// than another's. The database is therefore fixed, like a standard
/// benchmark database, and the seed picks the queries.
const LUBM_DATA_SEED: u64 = 7;
const LUBM_CLASSES: [(QueryShape, usize); 2] = [(QueryShape::Complex, 4), (QueryShape::Complex, 5)];
/// Queries per class in each pass of the closed loop.
const DBPEDIA_PER_CLASS: usize = 1;
/// LUBM queries per class and pass. About one LUBM query in forty is a
/// type join costing milliseconds; at three LUBM queries per
/// DBPEDIA query those make up about 2% of all queries, so the p99 of a
/// window falls inside that cluster rather than on its edge.
const LUBM_PER_CLASS: usize = 15;
/// Passes per measurement window: 1 000 queries, so a window's p99 has
/// ten samples above it.
const WINDOW_PASSES: usize = 25;
const MIN_WINDOWS: usize = 5;
/// Generous: a timeout is a failure, not a latency sample.
const TIMEOUT: Duration = Duration::from_secs(10);
const THREADS: usize = 2;
/// Passes of the stream the traced pass replays.
const REPLAY_PASSES: usize = 100;

/// One query of the timed loop.
struct Executed {
    /// 0 = DBPEDIA, 1 = LUBM.
    engine: usize,
    text: String,
    count: u128,
    ok: bool,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dbpedia = inputs::dataset(Benchmark::Dbpedia, DBPEDIA_SCALE, args.seed);
    let lubm = inputs::dataset(Benchmark::Lubm, LUBM_SCALE, LUBM_DATA_SEED);
    eprintln!(
        "perfbench: paper_queries: {} + {} triples",
        dbpedia.triples, lubm.triples
    );

    let mut setup = Setup {
        triples: dbpedia.triples + lubm.triples,
        ..Setup::default()
    };
    let mut engines = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous engines before timing the next load.
        engines.clear();
        let t = Instant::now();
        engines = vec![layers::load(&dbpedia.text), layers::load(&lubm.text)];
        let secs = t.elapsed().as_secs_f64();
        setup.setup_s.push(secs);
        setup.load_s.push(secs);
    }
    setup.resident_bytes = engines.iter().map(layers::resident_bytes).sum();

    let options = ExecOptions::benchmark(TIMEOUT).with_threads(THREADS);
    let (executed, windows, busy) = timed_loop(args, &engines, &options, &mut setup, &mut report);
    let qps = windows.qps();
    eprintln!(
        "perfbench: paper_queries: {:.2} s of query time",
        busy.as_secs_f64()
    );

    if !args.trace {
        setup.report(&mut report);
        windows.report(&mut report);
        return report;
    }

    let epoch = Instant::now();
    let mut tracer = layers::process_tracer(epoch);
    let graphs: Vec<_> = engines.iter().map(AmberEngine::shared_rdf).collect();
    let replay = replay_set(args, &engines, &executed, &mut report);
    let items: Vec<ReplayItem<'_>> = replay
        .iter()
        .map(|(engine, text, count)| ReplayItem {
            engine: *engine,
            text,
            expected: *count,
        })
        .collect();
    let traced_qps = layers::engine_replay(&graphs, &items, &options, &mut tracer, &mut report);
    report.add(
        "trace.overhead_ratio",
        trace::ratio(qps, traced_qps),
        "ratio",
    );
    print_split(&tracer, windows.p99());

    let mut load_tracer = layers::process_tracer(epoch);
    layers::load_layers(&dbpedia.text, &mut load_tracer, &mut report);
    tracer.absorb(load_tracer);

    // The serving layers, peeled on this workload's own DBPEDIA queries.
    let pool: Vec<String> = replay
        .iter()
        .filter(|q| q.0 == 0)
        .map(|q| q.1.clone())
        .take(serving::POOL)
        .collect();
    let peel_tracer = serving::peel(args.seed, &graphs[0], &pool, epoch, &mut report);
    tracer.absorb(peel_tracer);
    let path = crate::output_dir().join("trace-paper_queries.tsv");
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    report
}

/// The seeded query stream: passes of queries, each holding
/// [`DBPEDIA_PER_CLASS`] of every DBPEDIA class and [`LUBM_PER_CLASS`] of
/// every LUBM class in random order, every text new within its window. A
/// second stream with the same seed repeats the first one exactly.
struct Stream<'g> {
    rng: Rng,
    sources: [QuerySource<'g>; 2],
    passes: usize,
    short_passes: usize,
}

impl<'g> Stream<'g> {
    fn new(engines: &'g [AmberEngine], seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed),
            sources: [
                QuerySource::new(engines[0].rdf(), seed),
                QuerySource::new(engines[1].rdf(), seed ^ 0x4C55_424D),
            ],
            passes: 0,
            short_passes: 0,
        }
    }

    fn pass(&mut self) -> Vec<(usize, String)> {
        // Texts are distinct within a window, not across windows: the few
        // constant-free LUBM type joins would otherwise be used up early
        // and every window would see a different mix.
        if self.passes.is_multiple_of(WINDOW_PASSES) {
            self.sources.iter_mut().for_each(QuerySource::forget);
        }
        self.passes += 1;
        let mut pass: Vec<(usize, String)> = Vec::new();
        for text in self.sources[0].mix(&inputs::PAPER_CLASSES, DBPEDIA_PER_CLASS, &mut self.rng) {
            pass.push((0, text));
        }
        for text in self.sources[1].mix(&LUBM_CLASSES, LUBM_PER_CLASS, &mut self.rng) {
            pass.push((1, text));
        }
        let full =
            DBPEDIA_PER_CLASS * inputs::PAPER_CLASSES.len() + LUBM_PER_CLASS * LUBM_CLASSES.len();
        if pass.len() < full {
            self.short_passes += 1;
        }
        self.rng.shuffle(&mut pass);
        pass
    }
}

/// Closed loop over passes of new queries until `args.seconds` of query
/// time is spent and at least [`MIN_WINDOWS`] windows are complete.
/// Generating a pass is not timed; nor is checking each window's counts
/// against a one-thread run, done when the window ends so that memory
/// does not grow with the number of queries run. After each window the
/// engines restart from their snapshots once, so restart times sample the
/// whole run. Returns the queries of the first [`REPLAY_PASSES`] passes,
/// the windows and the query time.
fn timed_loop(
    args: &Args,
    engines: &[AmberEngine],
    options: &ExecOptions,
    setup: &mut Setup,
    report: &mut Report,
) -> (Vec<Executed>, Windows, Duration) {
    let loaded: Vec<&AmberEngine> = engines.iter().collect();
    let mut stream = Stream::new(engines, args.seed);
    let mut executed = Vec::new();
    let mut unchecked = Vec::new();
    let mut windows = Windows::default();
    let mut window = (Vec::new(), Duration::ZERO, 0usize);
    let mut busy = Duration::ZERO;
    let mut slowest = 0.0f64;
    while busy < args.seconds || windows.len() < MIN_WINDOWS {
        let pass = stream.pass();
        if pass.is_empty() {
            break;
        }
        for (engine, text) in pass {
            let request = QueryRequest::sparql(&text).with_options(options.clone());
            let t = Instant::now();
            let outcome = engines[engine].run(&request);
            let elapsed = t.elapsed();
            busy += elapsed;
            window.0.push(elapsed.as_secs_f64() * 1e3);
            slowest = slowest.max(elapsed.as_secs_f64() * 1e3);
            window.1 += elapsed;
            report.attempted += 1;
            let (count, ok) = match outcome {
                Ok(o) if o.status.is_complete() && o.embedding_count > 0 => {
                    (o.embedding_count, true)
                }
                Ok(o) => {
                    report.fail(format!(
                        "{:?} with {} embeddings: {text}",
                        o.status, o.embedding_count
                    ));
                    (o.embedding_count, false)
                }
                Err(e) => {
                    report.fail(format!("{e}: {text}"));
                    (0, false)
                }
            };
            window.2 += usize::from(ok);
            unchecked.push(Executed {
                engine,
                text,
                count,
                ok,
            });
        }
        if stream.passes.is_multiple_of(WINDOW_PASSES) {
            windows.push(window.2, window.1.as_secs_f64(), &window.0);
            window = (Vec::new(), Duration::ZERO, 0);
            verify(engines, &unchecked, report);
            layers::restart(&loaded, setup, report);
            if stream.passes <= REPLAY_PASSES {
                executed.append(&mut unchecked);
            }
            unchecked.clear();
        }
    }
    verify(engines, &unchecked, report);
    eprintln!(
        "perfbench: paper_queries: slowest query {slowest:.1} ms of the {} s budget",
        TIMEOUT.as_secs()
    );
    if stream.short_passes > 0 {
        eprintln!(
            "perfbench: paper_queries: {} passes ran short of distinct queries",
            stream.short_passes
        );
    }
    (executed, windows, busy)
}

/// The first [`REPLAY_PASSES`] passes of the stream — a fixed set for a
/// given seed, whatever the speed of the untraced loop — with each
/// query's count: from the untraced loop when it ran the query, else from
/// a one-thread run.
fn replay_set(
    args: &Args,
    engines: &[AmberEngine],
    executed: &[Executed],
    report: &mut Report,
) -> Vec<(usize, String, u128)> {
    let known: HashMap<&str, u128> = executed
        .iter()
        .filter(|q| q.ok)
        .map(|q| (q.text.as_str(), q.count))
        .collect();
    let mut stream = Stream::new(engines, args.seed);
    let one_thread = ExecOptions::benchmark(TIMEOUT);
    let mut set = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for (engine, text) in stream.pass() {
            let count = match known.get(text.as_str()) {
                Some(&count) => count,
                None => match engines[engine]
                    .run(&QueryRequest::sparql(&text).with_options(one_thread.clone()))
                {
                    Ok(o) if o.status.is_complete() => o.embedding_count,
                    Ok(o) => {
                        report.fail(format!("replay count: {:?}: {text}", o.status));
                        continue;
                    }
                    Err(e) => {
                        report.fail(format!("replay count: {e}: {text}"));
                        continue;
                    }
                },
            };
            set.push((engine, text, count));
        }
    }
    set
}

/// Every count of the timed loop must match a one-thread run.
fn verify(engines: &[AmberEngine], executed: &[Executed], report: &mut Report) {
    let options = ExecOptions::benchmark(TIMEOUT);
    for q in executed.iter().filter(|q| q.ok) {
        match engines[q.engine].run(&QueryRequest::sparql(&q.text).with_options(options.clone())) {
            Ok(o) if o.status.is_complete() && o.embedding_count == q.count => {}
            Ok(o) => report.fail(format!(
                "one-thread check: {} embeddings ({:?}), two threads counted {}: {}",
                o.embedding_count, o.status, q.count, q.text
            )),
            Err(e) => report.fail(format!("one-thread check: {e}: {}", q.text)),
        }
    }
}

/// Where `latency_p99_ms` goes: prepare versus search for the replayed
/// queries at or above the untraced p99, and for all replayed queries.
fn print_split(tracer: &Tracer, p99_ms: f64) {
    let p99_us = p99_ms * 1e3;
    let prepare = tracer.micros("core.prepare");
    let execute = tracer.micros("core.execute");
    let (mut tail_prepare, mut tail_execute, mut tail) = (0.0, 0.0, 0);
    for (p, e) in prepare.iter().zip(&execute) {
        if p + e >= p99_us {
            tail_prepare += p;
            tail_execute += e;
            tail += 1;
        }
    }
    eprintln!(
        "perfbench: paper_queries split: all queries prepare {:.1}% of prepare+execute; \
         the {tail} queries at or above p99 ({:.2} ms) spend {:.1}% in prepare, {:.1}% in execute",
        100.0
            * trace::ratio(
                prepare.iter().sum(),
                prepare.iter().sum::<f64>() + execute.iter().sum::<f64>()
            ),
        p99_us / 1e3,
        100.0 * trace::ratio(tail_prepare, tail_prepare + tail_execute),
        100.0 * trace::ratio(tail_execute, tail_prepare + tail_execute),
    );
}
