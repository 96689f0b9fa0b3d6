//! `http_serving`: "HTTP request in, result bytes out", plus the serving
//! peel every workload's traced pass uses.
//!
//! Two keep-alive loopback connections send `POST /sparql` in a closed
//! loop for four tenants, drawing from a Zipf(1.0) mix over a pool of
//! distinct DBPEDIA star and complex queries. The pool is larger than the
//! 256-entry per-session plan and result caches, so hits, misses and
//! evictions all occur. Every 200 body must be byte-equal to
//! `amber_http::sparql_json` of the embedded answer.

use crate::inputs::{self, QuerySource, Request, RequestStream, Rng, Zipf, CLIENTS, TENANTS};
use crate::layers::{self, Setup, SETUP_REPS};
use crate::trace::{self, AllocScope, Tracer, Windows};
use crate::{Args, Report};
use amber::{AmberEngine, ExecOptions, QueryRequest, QuerySession};
use amber_datagen::{Benchmark, QueryShape};
use amber_http::{HttpConfig, HttpServer};
use amber_multigraph::RdfGraph;
use amber_serve::{ServeConfig, ServeReport, Server, SubmitOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const DBPEDIA_SCALE: u32 = 20;
/// Distinct queries in the serving mix.
pub const POOL: usize = 400;
const CLASSES: [(QueryShape, usize); 6] = [
    (QueryShape::Star, 10),
    (QueryShape::Star, 15),
    (QueryShape::Star, 20),
    (QueryShape::Complex, 10),
    (QueryShape::Complex, 15),
    (QueryShape::Complex, 20),
];
/// Rows per answer.
const ROW_CAP: usize = 16;
/// Length of one measurement window of the closed loop.
const WINDOW_S: f64 = 1.0;
/// Closed-loop time before the timed windows, so that the per-tenant
/// caches and the shared plans reach their steady state first.
const WARMUP_S: f64 = 3.0;
/// Restarts from the snapshot per run, for `snapshot_restart_s`.
const RESTARTS: usize = 20;
/// Requests per client in each depth of the traced peel.
const PEEL_PER_CLIENT: usize = 5_000;
/// Requests per client each depth sends before the next depth's turn.
const PEEL_CHUNK: usize = 250;

/// The serving configuration of every server the benchmark starts.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        options: serve_options(),
        ..ServeConfig::default()
    }
}

fn serve_options() -> ExecOptions {
    ExecOptions::batch().with_max_results(ROW_CAP)
}

/// The bodies a correct server returns: `sparql_json` of the embedded
/// answer of each pool query.
fn expected_bodies(engine: &AmberEngine, pool: &[String], report: &mut Report) -> Vec<String> {
    let options = ExecOptions::new().with_max_results(ROW_CAP);
    pool.iter()
        .map(
            |text| match engine.run(&QueryRequest::sparql(text).with_options(options.clone())) {
                Ok(outcome) => amber_http::sparql_json(&outcome),
                Err(e) => {
                    report.attempted += 1;
                    report.fail(format!("expected answer: {e}: {text}"));
                    String::new()
                }
            },
        )
        .collect()
}

/// `POST /sparql` request bytes for every (tenant, pool query).
fn request_bytes(pool: &[String]) -> Vec<Vec<Vec<u8>>> {
    TENANTS
        .iter()
        .map(|tenant| {
            pool.iter()
                .map(|text| {
                    format!(
                        "POST /sparql HTTP/1.1\r\nHost: perfbench\r\n\
                         Content-Type: application/sparql-query\r\n\
                         x-amber-tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{text}",
                        text.len()
                    )
                    .into_bytes()
                })
                .collect()
        })
        .collect()
}

/// One keep-alive connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Send one request and read the whole response: its status and body.
    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, &[u8])> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::other("response head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other("no status line"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| std::io::Error::other("no Content-Length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, &self.buf[head_end..head_end + length]))
    }
}

/// What one client thread saw.
struct ClientResult {
    /// Latencies in milliseconds of the correct answers completed in each
    /// timed window.
    windows: Vec<Vec<f64>>,
    /// Correct answers, warm-up included.
    answered: u64,
    failures: Vec<String>,
}

fn start_http(engine: Arc<AmberEngine>) -> HttpServer {
    HttpServer::start(Server::start(engine, serve_config()), HttpConfig::default())
        .expect("bind a loopback port")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dbpedia = inputs::dataset(Benchmark::Dbpedia, DBPEDIA_SCALE, args.seed);
    eprintln!("perfbench: http_serving: {} triples", dbpedia.triples);

    let mut setup = Setup {
        triples: dbpedia.triples,
        ..Setup::default()
    };
    let mut ready: Option<(Arc<AmberEngine>, HttpServer)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, http)) = ready.take() {
            http.shutdown();
        }
        let t = Instant::now();
        let engine = Arc::new(layers::load(&dbpedia.text));
        setup.load_s.push(t.elapsed().as_secs_f64());
        let http = start_http(Arc::clone(&engine));
        setup.setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((engine, http));
    }
    let (engine, http) = ready.expect("at least one set-up");
    setup.resident_bytes = layers::resident_bytes(&engine);
    // Restarts are timed outside the serving loop, so that they do not
    // disturb its windows: half before it, half after it, so that the
    // samples span the run.
    for _ in 0..RESTARTS / 2 {
        layers::restart(&[&engine], &mut setup, &mut report);
    }

    let mut rng = Rng::new(args.seed);
    let pool =
        QuerySource::new(engine.rdf(), args.seed).mix(&CLASSES, POOL / CLASSES.len() + 1, &mut rng);
    let pool: Vec<String> = pool.into_iter().take(POOL).collect();
    let expected = expected_bodies(&engine, &pool, &mut report);
    let requests = request_bytes(&pool);

    // Timed: the closed-loop clients send without pause for the warm-up
    // and then the whole run, which is cut into windows by completion
    // time.
    let n_windows = ((args.seconds.as_secs_f64() / WINDOW_S).round() as usize).max(3);
    let zipf = Arc::new(Zipf::new(pool.len()));
    let addr = http.local_addr();
    let start = Barrier::new(CLIENTS);
    let clients: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stream = RequestStream::new(args.seed, c, Arc::clone(&zipf));
                let (start, requests, expected) = (&start, &requests, &expected);
                scope.spawn(move || closed_loop(addr, stream, requests, expected, start, n_windows))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let served: ServeReport = http.shutdown();
    for _ in RESTARTS / 2..RESTARTS {
        layers::restart(&[&engine], &mut setup, &mut report);
    }
    let mut windows = Windows::default();
    let mut completed = 0;
    for w in 0..n_windows {
        let latencies_ms: Vec<f64> = clients
            .iter()
            .flat_map(|c| c.windows[w].iter().copied())
            .collect();
        completed += latencies_ms.len();
        windows.push(latencies_ms.len(), WINDOW_S, &latencies_ms);
    }
    for client in clients {
        report.attempted += client.answered + client.failures.len() as u64;
        for failure in client.failures {
            report.fail(failure);
        }
    }
    let qps = windows.qps();
    eprintln!(
        "perfbench: http_serving: {completed} requests in {n_windows} windows, result hit rate {:.3}, rejected {}",
        served.plan_stats.results.hit_rate(),
        served.rejected
    );

    if !args.trace {
        setup.report(&mut report);
        windows.report(&mut report);
        return report;
    }

    let epoch = Instant::now();
    let graph = engine.shared_rdf();
    drop(engine);
    let mut tracer = peel(args.seed, &graph, &pool, epoch, &mut report);
    // A closed loop of `CLIENTS` connections completes `CLIENTS` requests
    // per mean round trip.
    let traced_qps = trace::ratio(
        CLIENTS as f64 * 1e6,
        trace::mean(&tracer.micros("http.roundtrip")),
    );
    report.add(
        "trace.overhead_ratio",
        trace::ratio(qps, traced_qps),
        "ratio",
    );

    // The engine layers, replayed on the pool: each distinct query once,
    // count-only with two threads.
    let options = ExecOptions::benchmark(Duration::from_secs(10)).with_threads(2);
    let counter = AmberEngine::from_graph(Arc::clone(&graph));
    let mut items = Vec::new();
    for text in &pool {
        match counter.run(&QueryRequest::sparql(text).with_options(options.clone())) {
            Ok(o) => items.push(layers::ReplayItem {
                engine: 0,
                text,
                expected: o.embedding_count,
            }),
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("count: {e}: {text}"));
            }
        }
    }
    drop(counter);
    let mut replay = layers::process_tracer(epoch);
    layers::engine_replay(
        &[Arc::clone(&graph)],
        &items,
        &options,
        &mut replay,
        &mut report,
    );
    tracer.absorb(replay);
    let mut load = layers::process_tracer(epoch);
    layers::load_layers(&dbpedia.text, &mut load, &mut report);
    tracer.absorb(load);
    let path = crate::output_dir().join("trace-http_serving.tsv");
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    report
}

/// One client: once every client is connected, send requests back to
/// back for the warm-up and `n_windows` windows, checking every answer.
/// The clients start together, so each bins its answers by its own start.
fn closed_loop(
    addr: SocketAddr,
    mut stream: RequestStream,
    requests: &[Vec<Vec<u8>>],
    expected: &[String],
    start: &Barrier,
    n_windows: usize,
) -> ClientResult {
    let client = Client::connect(addr);
    start.wait();
    let timed_from = Instant::now() + Duration::from_secs_f64(WARMUP_S);
    let mut result = ClientResult {
        windows: vec![Vec::new(); n_windows],
        answered: 0,
        failures: Vec::new(),
    };
    let mut connection = match client {
        Ok(connection) => connection,
        Err(e) => {
            result.failures.push(format!("connect: {e}"));
            return result;
        }
    };
    loop {
        let Request { tenant, query } = stream.next().expect("the request stream is endless");
        let t = Instant::now();
        let answer = connection.exchange(&requests[tenant][query]);
        let done = Instant::now();
        let window = done
            .checked_duration_since(timed_from)
            .map(|since| (since.as_secs_f64() / WINDOW_S) as usize);
        match answer {
            Ok((200, body)) if body == expected[query].as_bytes() => {
                result.answered += 1;
                if let Some(latencies_ms) = window.and_then(|w| result.windows.get_mut(w)) {
                    latencies_ms.push((done - t).as_secs_f64() * 1e3);
                }
            }
            Ok((status, body)) => result.failures.push(format!(
                "HTTP {status}, {} body bytes, expected 200 with {}",
                body.len(),
                expected[query].len()
            )),
            Err(e) => {
                result.failures.push(format!("exchange: {e}"));
                return result;
            }
        }
        if window.is_some_and(|w| w >= n_windows) {
            return result;
        }
    }
}

/// Which way a peel depth reaches the system.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// Over a loopback HTTP connection.
    Http,
    /// `Server::submit_sparql_with` + `Ticket::wait`.
    Serve,
    /// `engine.run_in` with one session per tenant.
    Session,
    /// The separate calls parse → canonicalize → prepare → run → serialize.
    Calls,
}

/// One client's state in every depth of the peel.
struct PeelClient {
    connection: Client,
    /// One session per tenant of this client, for [`Depth::Session`] and
    /// for [`Depth::Calls`].
    sessions: [Vec<QuerySession>; 2],
    tracer: Tracer,
    failures: Vec<String>,
}

/// What one peel request needs besides its client.
struct PeelStack<'a> {
    engines: &'a [Arc<AmberEngine>],
    server: &'a Server,
    pool: &'a [String],
    requests: &'a [Vec<Vec<u8>>],
    expected: &'a [String],
}

/// Send request `r` (id `rid`) one way and check the answer.
fn peel_one(
    depth: Depth,
    stack: &PeelStack<'_>,
    client: &mut PeelClient,
    c: usize,
    rid: u64,
    r: Request,
) {
    let text = stack.pool[r.query].as_str();
    let options = serve_options();
    let tracer = &mut client.tracer;
    let body: Result<Vec<u8>, String> = match depth {
        Depth::Http => {
            let span = tracer.begin("http.roundtrip", None, rid);
            let answer = client
                .connection
                .exchange(&stack.requests[r.tenant][r.query]);
            tracer.end(span);
            match answer {
                Ok((200, body)) => Ok(body.to_vec()),
                Ok((status, _)) => Err(format!("HTTP {status}")),
                Err(e) => Err(e.to_string()),
            }
        }
        Depth::Serve => tracer
            .span("serve.submit_wait", None, rid, || {
                stack
                    .server
                    .submit_sparql_with(TENANTS[r.tenant], text, SubmitOptions::new())
                    .and_then(|ticket| ticket.wait())
            })
            .map(|o| amber_http::sparql_json(&o).into_bytes())
            .map_err(|e| e.to_string()),
        Depth::Session => {
            let (engine, session) = (&stack.engines[2], &mut client.sessions[0][r.tenant - 2 * c]);
            tracer
                .span("core.run_in", None, rid, || {
                    engine.run_in(
                        &QueryRequest::sparql(text).with_options(options.clone()),
                        session,
                    )
                })
                .map(|o| amber_http::sparql_json(&o).into_bytes())
                .map_err(|e| e.to_string())
        }
        Depth::Calls => {
            let (engine, session) = (&stack.engines[3], &mut client.sessions[1][r.tenant - 2 * c]);
            let root = tracer.begin("request", None, rid);
            let out = tracer
                .span("sparql.parse", Some(root), rid, || {
                    amber_sparql::parse_select(text)
                })
                .map_err(|e| amber::Error::from(amber::EngineError::from(e)))
                .and_then(|query| {
                    tracer.span("sparql.canonicalize", Some(root), rid, || {
                        amber_sparql::canonicalize(&query)
                    });
                    let plan = tracer.span("core.prepare", Some(root), rid, || {
                        engine.prepare_in_session(&query, session)
                    })?;
                    tracer.span("core.execute", Some(root), rid, || {
                        engine.run_in(
                            &QueryRequest::prepared(&plan).with_options(options.clone()),
                            session,
                        )
                    })
                })
                .map(|outcome| {
                    tracer.span("http.serialize", Some(root), rid, || {
                        amber_http::sparql_json(&outcome)
                    })
                });
            tracer.end(root);
            out.map(String::into_bytes).map_err(|e| e.to_string())
        }
    };
    let want = stack.expected[r.query].as_bytes();
    match body {
        Ok(body) if body == want => {}
        Ok(body) => client.failures.push(format!(
            "peel: {} body bytes differ from the expected {}: {text}",
            body.len(),
            want.len()
        )),
        Err(e) => client.failures.push(format!("peel: {e}: {text}")),
    }
}

/// Replay the first [`PEEL_PER_CLIENT`] requests of each client four
/// ways, each on its own fresh engine (so fresh caches) over `graph`, one
/// layer deeper each way, and report each layer's self time as the
/// difference between adjacent depths, request by request. The depths
/// take turns chunk by chunk, so a stretch of host interference lands on
/// all four alike.
pub fn peel(
    seed: u64,
    graph: &Arc<RdfGraph>,
    pool: &[String],
    epoch: Instant,
    report: &mut Report,
) -> Tracer {
    let engines: Vec<Arc<AmberEngine>> = (0..4)
        .map(|_| Arc::new(AmberEngine::from_graph(Arc::clone(graph))))
        .collect();
    let expected = expected_bodies(&engines[3], pool, report);
    let requests = request_bytes(pool);
    let schedule = inputs::schedule(seed, pool.len(), PEEL_PER_CLIENT);
    let total = CLIENTS * PEEL_PER_CLIENT;
    let http = start_http(Arc::clone(&engines[0]));
    let server = Server::start(Arc::clone(&engines[1]), serve_config());
    let options = serve_options();
    let mut clients: Vec<PeelClient> = (0..CLIENTS)
        .map(|_| PeelClient {
            connection: Client::connect(http.local_addr()).expect("connect loopback"),
            sessions: [2, 3].map(|e| {
                (0..2)
                    .map(|_| engines[e].create_session(&options))
                    .collect()
            }),
            tracer: Tracer::new(epoch, AllocScope::Thread),
            failures: Vec::new(),
        })
        .collect();
    let stack = PeelStack {
        engines: &engines,
        server: &server,
        pool,
        requests: &requests,
        expected: &expected,
    };
    let before = server.metrics_snapshot();
    crate::alloc::arm(true);
    for chunk in (0..PEEL_PER_CLIENT).step_by(PEEL_CHUNK) {
        for depth in [Depth::Http, Depth::Serve, Depth::Session, Depth::Calls] {
            std::thread::scope(|scope| {
                for (c, client) in clients.iter_mut().enumerate() {
                    let (stack, schedule) = (&stack, &schedule);
                    scope.spawn(move || {
                        for (i, &r) in schedule[c].iter().enumerate().skip(chunk).take(PEEL_CHUNK) {
                            peel_one(depth, stack, client, c, (c * PEEL_PER_CLIENT + i) as u64, r);
                        }
                    });
                }
            });
        }
    }
    crate::alloc::arm(false);
    let queue_wait = histogram_delta(
        &before,
        &server.metrics_snapshot(),
        "amber_serve_queue_wait_us",
    );
    let mut merged = Tracer::new(epoch, AllocScope::Thread);
    for client in clients {
        report.attempted += 4 * PEEL_PER_CLIENT as u64;
        for failure in client.failures {
            report.fail(failure);
        }
        merged.absorb(client.tracer);
    }
    let rejected = server.shutdown().rejected;
    let served = http.shutdown();
    let rejected = rejected + served.rejected;

    // Per-request durations of each depth, aligned by request id.
    let by_request = |name: &str| -> Vec<f64> {
        let mut out = vec![0.0; total];
        for span in merged.named(name) {
            out[span.request as usize] = span.micros();
        }
        out
    };
    let roundtrip = by_request("http.roundtrip");
    let submit_wait = by_request("serve.submit_wait");
    let run_in = by_request("core.run_in");
    let calls: Vec<f64> = {
        let (parse, prepare, execute) = (
            by_request("sparql.parse"),
            by_request("core.prepare"),
            by_request("core.execute"),
        );
        (0..total)
            .map(|i| parse[i] + prepare[i] + execute[i])
            .collect()
    };
    let http_self: Vec<f64> = (0..total).map(|i| roundtrip[i] - submit_wait[i]).collect();
    let serve_self: Vec<f64> = (0..total).map(|i| submit_wait[i] - run_in[i]).collect();
    report.timing("http.roundtrip_us", &roundtrip, "us");
    report.timing("http.self_us", &http_self, "us");
    report.timing("http.serialize_us", &merged.micros("http.serialize"), "us");
    let serialized: Vec<_> = merged.named("http.serialize").collect();
    report.add(
        "http.serialize_allocs_per_call",
        trace::ratio(
            serialized.iter().map(|s| s.allocs.allocs).sum::<u64>() as f64,
            serialized.len() as f64,
        ),
        "count",
    );
    let bytes: usize = schedule
        .iter()
        .flatten()
        .map(|r| expected[r.query].len())
        .sum();
    report.exact(
        "http.response_bytes",
        trace::ratio(bytes as f64, total as f64),
        "B",
    );
    report.timing("serve.submit_wait_us", &submit_wait, "us");
    report.timing("serve.self_us", &serve_self, "us");
    report.add(
        "serve.queue_wait_us_p50",
        histogram_quantile(&queue_wait, 0.5),
        "us",
    );
    report.add(
        "serve.queue_wait_us_p99",
        histogram_quantile(&queue_wait, 0.99),
        "us",
    );
    report.add("serve.rejected", rejected as f64, "count");
    report.add(
        "core.plan_hit_rate",
        served.plan_stats.plans.hit_rate(),
        "ratio",
    );
    report.add(
        "core.result_hit_rate",
        served.plan_stats.results.hit_rate(),
        "ratio",
    );
    report.add(
        "core.shared_plan_hit_rate",
        served.shared_plans.hit_rate(),
        "ratio",
    );
    // Σ self times = http.self + serve.self + the separate calls; against
    // the round trip this leaves |Σ calls − Σ run_in| / Σ round trip.
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let layered = sum(&http_self) + sum(&serve_self) + sum(&calls);
    report.add(
        "trace.reconcile_error",
        trace::ratio((layered - sum(&roundtrip)).abs(), sum(&roundtrip)),
        "ratio",
    );
    eprintln!(
        "perfbench: peel means (us): round trip {:.1} = http self {:.1} + serve self {:.1} + run_in {:.1}; \
         separate calls {:.1}",
        trace::mean(&roundtrip),
        trace::mean(&http_self),
        trace::mean(&serve_self),
        trace::mean(&run_in),
        trace::mean(&calls)
    );
    merged
}

/// Per-bucket counts `(upper bound, count)` observed between two
/// snapshots of one histogram.
fn histogram_delta(
    before: &amber_obs::MetricsSnapshot,
    after: &amber_obs::MetricsSnapshot,
    name: &str,
) -> Vec<(u64, u64)> {
    let cumulative = |snapshot: &amber_obs::MetricsSnapshot, bound: u64| -> u64 {
        snapshot
            .histogram_value(name, &[])
            .and_then(|h| {
                h.buckets
                    .iter()
                    .take_while(|(ub, _)| *ub <= bound)
                    .last()
                    .map(|b| b.1)
            })
            .unwrap_or(0)
    };
    let Some(h) = after.histogram_value(name, &[]) else {
        return Vec::new();
    };
    let mut previous = 0;
    h.buckets
        .iter()
        .map(|&(bound, _)| {
            let cum = cumulative(after, bound) - cumulative(before, bound);
            let count = cum - previous;
            previous = cum;
            (bound, count)
        })
        .collect()
}

/// The `q`-quantile of a log₂ histogram, interpolated linearly by rank
/// within the bucket that holds it (bucket `[2^(i-1), 2^i - 1]` for an
/// upper bound `2^i - 1`; the bucket of 0 holds only 0).
fn histogram_quantile(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(bound, count) in buckets {
        if count > 0 && seen + count >= rank {
            let lower = if bound == 0 {
                0.0
            } else {
                (bound as f64 + 1.0) / 2.0
            };
            let share = (rank - seen) as f64 / count as f64;
            return lower + (bound as f64 - lower) * share;
        }
        seen += count;
    }
    0.0
}
