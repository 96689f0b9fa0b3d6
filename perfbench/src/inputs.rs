//! Input generation: N-Triples documents from the repository's data
//! generators and SPARQL texts from the paper's §7.2 query generator.
//! Everything here runs before any timed region and is a pure function of
//! the seed.

use amber_datagen::{Benchmark, QueryShape, WorkloadConfig, WorkloadGenerator};
use amber_multigraph::RdfGraph;
use std::collections::HashSet;

/// SplitMix64: a tiny seeded generator for schedules and shuffles.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One N-Triples document, as the program receives it.
pub struct Dataset {
    pub text: String,
    pub triples: usize,
}

pub fn dataset(bench: Benchmark, scale: u32, seed: u64) -> Dataset {
    let triples = bench.generate(scale, seed);
    Dataset {
        text: rdf_model::write_ntriples(&triples),
        triples: triples.len(),
    }
}

/// The paper's DBPEDIA sweep: star and complex queries, k = 10…50.
pub const PAPER_CLASSES: [(QueryShape, usize); 10] = [
    (QueryShape::Star, 10),
    (QueryShape::Star, 20),
    (QueryShape::Star, 30),
    (QueryShape::Star, 40),
    (QueryShape::Star, 50),
    (QueryShape::Complex, 10),
    (QueryShape::Complex, 20),
    (QueryShape::Complex, 30),
    (QueryShape::Complex, 40),
    (QueryShape::Complex, 50),
];

/// Draws SPARQL texts from one graph, never repeating a text.
pub struct QuerySource<'g> {
    generator: WorkloadGenerator<'g>,
    seen: HashSet<String>,
}

impl<'g> QuerySource<'g> {
    pub fn new(rdf: &'g RdfGraph, seed: u64) -> Self {
        QuerySource {
            generator: WorkloadGenerator::new(rdf, seed),
            seen: HashSet::new(),
        }
    }

    /// Up to `n` new distinct queries of one class (fewer only if the
    /// data runs out of distinct seeds).
    pub fn take(&mut self, shape: QueryShape, size: usize, n: usize) -> Vec<String> {
        let config = WorkloadConfig::new(shape, size);
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < 20 * n {
            attempts += 1;
            if let Some(query) = self.generator.generate(&config) {
                if self.seen.insert(query.text.clone()) {
                    out.push(query.text);
                }
            }
        }
        out
    }

    /// Allow texts drawn before to be drawn again.
    pub fn forget(&mut self) {
        self.seen.clear();
    }

    /// `per_class` new queries of every class, in seeded random order.
    pub fn mix(
        &mut self,
        classes: &[(QueryShape, usize)],
        per_class: usize,
        rng: &mut Rng,
    ) -> Vec<String> {
        let mut out: Vec<String> = classes
            .iter()
            .flat_map(|&(shape, size)| self.take(shape, size, per_class))
            .collect();
        rng.shuffle(&mut out);
        out
    }
}

/// Zipf(s = 1.0) over `n` ranks: `P(rank r) ∝ 1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Tenants, and the two keep-alive clients that carry them: client `c`
/// sends for tenants `2c` and `2c + 1`, so each tenant's requests arrive
/// in one order whatever the interleaving between clients.
pub const CLIENTS: usize = 2;
pub const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];

/// One request of the serving schedule.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into [`TENANTS`].
    pub tenant: usize,
    /// Index into the query pool.
    pub query: usize,
}

/// The endless seeded request stream of one client.
pub struct RequestStream {
    rng: Rng,
    zipf: std::sync::Arc<Zipf>,
    client: usize,
}

impl RequestStream {
    pub fn new(seed: u64, client: usize, zipf: std::sync::Arc<Zipf>) -> Self {
        RequestStream {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            zipf,
            client,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;
    fn next(&mut self) -> Option<Request> {
        let tenant = 2 * self.client + self.rng.below(2);
        let query = self.zipf.draw(&mut self.rng);
        Some(Request { tenant, query })
    }
}

/// The first `per_client` requests of every client's stream.
pub fn schedule(seed: u64, pool: usize, per_client: usize) -> Vec<Vec<Request>> {
    let zipf = std::sync::Arc::new(Zipf::new(pool));
    (0..CLIENTS)
        .map(|c| {
            RequestStream::new(seed, c, zipf.clone())
                .take(per_client)
                .collect()
        })
        .collect()
}
