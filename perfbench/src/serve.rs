//! `serve_mix`: the query service as shipped — an in-process `serve()`
//! with two workers on loopback — under a closed loop of two clients (query
//! clients are sweep scripts that wait for each reply). Each pass is one
//! sweep over p and seed across the hypercube, mesh, complete, double-tree
//! and `explicit:` families, in three classes:
//!
//! * cold misses: every sweep point at a new seed, so neither cache helps;
//! * census-cache hits: connectivity for further pairs on an instance the
//!   sweep has already censused;
//! * response-cache hits: a re-fetch of the points a finished sweep
//!   already answered (the warm set, answered during set-up).
//!
//! No client trace is recorded anywhere, so the proportions are an
//! assumption; see [`CENSUS_HITS_PER_CONFIG`].
//!
//! `serve()` turns on the obs layer for the whole process, so these
//! end-to-end numbers include the server's always-on counting: that is the
//! program as shipped.
//!
//! The layer pipeline replays a pass in process, one request at a time:
//! `Query::from_body` (parse), `Graph::build` + `resolve_pair` +
//! `canonical_key` (resolve), a response-cache lookup, and on a miss the
//! engine — for connectivity the fault instance and census are computed
//! from layer calls and handed to `Graph::answer` through its census cache,
//! for probes `Graph::answer` runs the batched harness — then the JSON
//! render. Every body must equal the bytes the server sent.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::PercolationConfig;
use faultnet_server::cache::LruCache;
use faultnet_server::engine::{CensusCache, CensusEntry, Graph};
use faultnet_server::http::{roundtrip, Request};
use faultnet_server::{serve, Family, Metric, Query, QueryService, ServerConfig, ServerHandle};
use faultnet_topology::Topology;

use crate::stats::{median, splitmix};
use crate::trace::{Layer, Tracer};
use crate::{Counters, PassOutput, Workload};

/// HTTP accept workers of the server.
const WORKERS: usize = 2;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Capacity of each of the server's two caches (the shipped default).
const CACHE_CAPACITY: usize = 256;
/// Census-cache hits per pass on each censused config.
///
/// The mix is an assumption, not a recording: a sweep asks about many
/// pairs of each sampled instance (census hits, 28 of 46 requests), samples
/// one new instance or probe run per sweep point (cold, 8 of 46), and
/// re-fetches each finished point once (response hits, 10 of 46). The
/// median request is then a cache hit of either kind, the 99th percentile
/// a cold probes run, and cold misses take about 90% of the clients'
/// waiting time, so `wall_s` and `work_per_s` follow the engine and the
/// census.
const CENSUS_HITS_PER_CONFIG: usize = 14;
/// Cold sweep points per pass: each query shape at two p, each point at a
/// new seed.
const COLD_SWEEPS: [(&str, [f64; 2]); 4] = [
    (r#""family":"hypercube","n":12,"trials":16"#, [0.5, 0.6]),
    (
        r#""family":"hypercube","n":14,"metric":"connectivity""#,
        [0.5, 0.55],
    ),
    (
        r#""family":"mesh","dim":2,"n":128,"metric":"connectivity""#,
        [0.6, 0.65],
    ),
    (r#""family":"explicit:karate","trials":24"#, [0.7, 0.8]),
];
/// Cold misses per pass.
const COLD: usize = 2 * COLD_SWEEPS.len();
/// Warm queries: the golden query, six more probes queries and three
/// connectivity configs (see [`warm_set`]).
const WARM: usize = 10;
/// Requests per pass: one re-fetch of each warm query, the census hits on
/// two censused configs, and the cold sweep points.
const REQUESTS: usize = WARM + 2 * CENSUS_HITS_PER_CONFIG + COLD;
/// The canned query whose body must match the committed golden file.
const GOLDEN_QUERY: &str = r#"{"family":"hypercube","n":10,"fault_model":"bernoulli-edges","p":0.45,"pair":[0,1023],"metric":"probes","trials":16,"seed":7}"#;
const GOLDEN_BODY: &[u8] =
    include_bytes!("../../crates/server/tests/golden/hypercube_n10_probes.json");
/// In-process `QueryService::handle` calls per warm query when measuring
/// the hit path without transport.
const HANDLE_SAMPLES: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    CensusHit,
    Cold,
}

#[derive(Debug, Clone)]
struct Req {
    body: String,
    class: Class,
    /// Index into the warm set, for hits.
    warm: Option<usize>,
}

/// Connectivity configs whose census the warm-up computes; census-hit
/// requests ask for new pairs on them. `(family JSON, vertex count)`.
const CENSUS_CONFIGS: [(&str, u64); 2] = [
    (r#""family":"hypercube","n":14,"p":0.5"#, 1 << 14),
    (r#""family":"mesh","dim":2,"n":128,"p":0.6"#, 128 * 128),
];

/// The warm queries; the BA substrate is last.
fn warm_set(seed: u64) -> Vec<String> {
    let s = |i: u64| splitmix(seed, 10 + i) % 1_000_000;
    let mut warm = vec![
        GOLDEN_QUERY.to_string(),
        format!(
            r#"{{"family":"hypercube","n":12,"p":0.5,"trials":16,"seed":{}}}"#,
            s(0)
        ),
        format!(
            r#"{{"family":"hypercube","n":11,"p":0.55,"trials":16,"seed":{}}}"#,
            s(1)
        ),
        format!(
            r#"{{"family":"mesh","dim":2,"n":64,"p":0.7,"trials":16,"seed":{}}}"#,
            s(2)
        ),
        format!(
            r#"{{"family":"complete","n":256,"p":0.05,"trials":16,"seed":{}}}"#,
            s(3)
        ),
        format!(
            r#"{{"family":"double-tree","n":10,"p":0.9,"trials":16,"seed":{}}}"#,
            s(4)
        ),
        format!(
            r#"{{"family":"explicit:karate","p":0.8,"trials":24,"seed":{}}}"#,
            s(5)
        ),
    ];
    for (i, (config, _)) in CENSUS_CONFIGS.iter().enumerate() {
        warm.push(format!(
            r#"{{{config},"metric":"connectivity","seed":{}}}"#,
            census_seed(seed, i)
        ));
    }
    warm.push(format!(
        r#"{{"family":"explicit:ba-20000-3","p":0.5,"metric":"connectivity","seed":{}}}"#,
        s(6)
    ));
    assert_eq!(warm.len(), WARM, "the warm set has WARM queries");
    warm
}

fn census_seed(seed: u64, config: usize) -> u64 {
    splitmix(seed, 50 + config as u64) % 1_000_000
}

/// The request sequence of pass `pass`: a pure function of the run seed
/// and the pass index. Every pass sends the same multiset of request
/// shapes in a seeded order; census-hit pairs and cold seeds are new in
/// every pass.
fn script(seed: u64, pass: usize, warm: &[String]) -> Vec<Req> {
    let mut rng = splitmix(seed, 1_000 + pass as u64);
    let mut next = move || {
        rng = splitmix(rng, 1);
        rng
    };
    let mut requests = Vec::with_capacity(REQUESTS);
    for (w, query) in warm.iter().enumerate() {
        requests.push(Req {
            body: query.clone(),
            class: Class::Hit,
            warm: Some(w),
        });
    }
    for (c, (config, n)) in CENSUS_CONFIGS.iter().enumerate() {
        for _ in 0..CENSUS_HITS_PER_CONFIG {
            let (a, b) = (next() % n, next() % n);
            requests.push(Req {
                body: format!(
                    r#"{{{config},"metric":"connectivity","seed":{},"pair":[{a},{b}]}}"#,
                    census_seed(seed, c)
                ),
                class: Class::CensusHit,
                warm: None,
            });
        }
    }
    for (shape, ps) in COLD_SWEEPS {
        for p in ps {
            let fresh = 1_000_000 + next() % 1_000_000_000_000;
            requests.push(Req {
                body: format!(r#"{{{shape},"p":{p},"seed":{fresh}}}"#),
                class: Class::Cold,
                warm: None,
            });
        }
    }
    assert_eq!(requests.len(), REQUESTS, "the pass mix adds up");
    // Seeded Fisher–Yates shuffle.
    for i in (1..requests.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        requests.swap(i, j);
    }
    requests
}

fn topology(graph: &Graph) -> &dyn Topology {
    match graph {
        Graph::Hypercube(g) => g,
        Graph::Mesh(g) => g,
        Graph::Complete(g) => g,
        Graph::DoubleTree(g) => g,
        Graph::Explicit(g) => g,
    }
}

/// One round trip as a client saw it: request index, latency in
/// microseconds, and the status and body or the transport error.
type Reply = (usize, f64, Result<(u16, Vec<u8>), String>);

/// The in-process layer pipeline's own caches.
struct Mirror {
    responses: HashMap<String, Arc<Vec<u8>>>,
    census: CensusCache,
}

/// The workload's state after set-up.
pub struct ServeMix {
    seed: u64,
    handle: Option<ServerHandle>,
    addr: String,
    warm: Vec<String>,
    /// Body of each warm query as first computed (cold) during set-up.
    warm_bodies: Vec<Vec<u8>>,
    mirror: Option<Mirror>,
    /// Untraced round-trip latencies by class, in microseconds.
    class_latencies: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced round trips of hypercube-family hits, in microseconds.
    hypercube_hit_us: Vec<f64>,
    /// Layer pipeline samples by name (microseconds).
    samples: BTreeMap<&'static str, Vec<f64>>,
    untraced_passes: u64,
    /// Fault instances the layer pipeline has materialised.
    instances: u64,
    /// Server counters ([`server_counts`]) summed over the untraced passes.
    /// Each pass is bracketed on its own: the census counters are
    /// process-wide, and the set-ups between passes warm other servers.
    counts: [u64; 5],
}

/// Response-cache hits, misses and coalesced waits of `service`, then the
/// process-wide census-cache hits and misses.
fn server_counts(service: &QueryService) -> [u64; 5] {
    let (hits, misses, coalesced) = service.metrics().cache_counts();
    [
        hits,
        misses,
        coalesced,
        faultnet_obs::counter_value("server.census_cache.hits"),
        faultnet_obs::counter_value("server.census_cache.misses"),
    ]
}

fn is_hypercube(body: &str) -> bool {
    body.contains(r#""family":"hypercube""#)
}

impl ServeMix {
    /// Starts the server and answers the warm set once through it, so the
    /// warm set is cached and the census configs are censused.
    pub fn setup(seed: u64, _tracer: &mut Tracer) -> Result<Self, String> {
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            cache_capacity: CACHE_CAPACITY,
            log: false,
        })
        .map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = handle.addr.to_string();
        let warm = warm_set(seed);
        let mut warm_bodies = Vec::with_capacity(warm.len());
        for query in &warm {
            let (status, body) = roundtrip(&addr, "POST", "/query", query.as_bytes())
                .map_err(|e| format!("warm-up request failed: {e}"))?;
            if status != 200 {
                return Err(format!("warm-up query answered {status}: {query}"));
            }
            warm_bodies.push(body);
        }
        Ok(ServeMix {
            seed,
            handle: Some(handle),
            addr,
            warm,
            warm_bodies,
            mirror: None,
            class_latencies: BTreeMap::new(),
            hypercube_hit_us: Vec::new(),
            samples: BTreeMap::new(),
            untraced_passes: 0,
            instances: 0,
            counts: [0; 5],
        })
    }

    fn sample(&mut self, name: &'static str, us: f64) {
        self.samples.entry(name).or_default().push(us);
    }

    /// One request through the layer pipeline; returns the body bytes.
    fn layer_request(&mut self, body: &str, tracer: &mut Tracer) -> Result<Arc<Vec<u8>>, String> {
        let started = Instant::now();
        let query = tracer.span("server.parse", Layer::Server, || {
            Query::from_body(body.as_bytes())
        })?;
        self.sample("server.parse_us", started.elapsed().as_secs_f64() * 1e6);

        let started = Instant::now();
        let resolve = tracer.enter("server.resolve", Some(Layer::Server));
        let graph = tracer.span("topology.build", Layer::Topology, || Graph::build(&query));
        let pair = graph.resolve_pair(&query)?;
        let key = query.canonical_key(pair);
        tracer.exit(resolve);
        let resolve_us = started.elapsed().as_secs_f64() * 1e6;
        match query.family {
            Family::Hypercube { .. } => self.sample("server.resolve_us.hypercube", resolve_us),
            Family::Explicit(_) => self.sample("server.resolve_us.explicit", resolve_us),
            _ => {}
        }

        let mirror = self.mirror.as_mut().expect("the mirror is prepared first");
        let cached = tracer.span("server.cache_lookup", Layer::Server, || {
            mirror.responses.get(&key).cloned()
        });
        if let Some(body) = cached {
            return Ok(body);
        }
        let started = Instant::now();
        let answer = match query.metric {
            Metric::Connectivity => {
                let census_key = query.census_key(pair);
                let entry = mirror
                    .census
                    .lock()
                    .expect("mirror census cache poisoned")
                    .get(&census_key);
                if entry.is_none() {
                    let model = query.fault_model.build();
                    let config = PercolationConfig::new(query.p, query.seed);
                    let g = topology(&graph);
                    self.instances += 1;
                    let instance = tracer.span("faultmodel.instance", Layer::FaultModel, || {
                        model.instance(g, config, Some(pair))
                    });
                    let census = tracer.span("percolation.census", Layer::Percolation, || {
                        ComponentCensus::compute(g, &instance)
                    });
                    mirror
                        .census
                        .lock()
                        .expect("mirror census cache poisoned")
                        .insert(census_key, Arc::new(CensusEntry { instance, census }));
                }
                let answer = tracer.span("server.engine_connectivity", Layer::Server, || {
                    graph.answer(&query, pair, &mirror.census)
                });
                if entry.is_none() {
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    self.sample("server.engine_connectivity_ms", ms);
                }
                answer
            }
            Metric::Probes => {
                let answer = tracer.span("server.engine_probes", Layer::Server, || {
                    graph.answer(&query, pair, &mirror.census)
                });
                let ms = started.elapsed().as_secs_f64() * 1e3;
                self.sample("server.engine_probes_ms", ms);
                answer
            }
        };
        let started = Instant::now();
        let body = tracer.span("server.render", Layer::Server, || {
            let mut rendered = answer.render();
            rendered.push('\n');
            Arc::new(rendered.into_bytes())
        });
        self.sample("server.render_us", started.elapsed().as_secs_f64() * 1e6);
        let mirror = self.mirror.as_mut().expect("the mirror is prepared first");
        mirror.responses.insert(key, Arc::clone(&body));
        Ok(body)
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

fn canonical(bodies: &[Vec<u8>]) -> String {
    let mut out = String::new();
    for body in bodies {
        out.push_str(&String::from_utf8_lossy(body));
        out.push('\n');
    }
    out
}

impl Workload for ServeMix {
    fn untraced_pass(&mut self, pass: usize, latencies_us: &mut Vec<f64>) -> PassOutput {
        let before = self
            .handle
            .as_ref()
            .map_or([0; 5], |h| server_counts(h.service()));
        let requests = script(self.seed, pass, &self.warm);
        let addr = self.addr.as_str();
        let requests_ref = &requests;
        // Closed loop: client c sends requests c, c + CLIENTS, ... in order,
        // each only after the previous reply.
        let per_client: Vec<Vec<Reply>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        (c..REQUESTS)
                            .step_by(CLIENTS)
                            .map(|i| {
                                let started = Instant::now();
                                let reply = roundtrip(
                                    addr,
                                    "POST",
                                    "/query",
                                    requests_ref[i].body.as_bytes(),
                                )
                                .map_err(|e| e.to_string());
                                (i, started.elapsed().as_secs_f64() * 1e6, reply)
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        let mut bodies = vec![Vec::new(); REQUESTS];
        let mut failed = 0;
        for (i, us, reply) in per_client.into_iter().flatten() {
            latencies_us.push(us);
            let req = &requests[i];
            let class = match req.class {
                Class::Hit => "hit",
                Class::CensusHit => "census_hit",
                Class::Cold => "cold",
            };
            self.class_latencies.entry(class).or_default().push(us);
            match reply {
                Ok((200, body)) => {
                    if let Some(w) = req.warm {
                        if body != self.warm_bodies[w] {
                            eprintln!("mismatch: warm body differs from cold body: {}", req.body);
                            failed += 1;
                        }
                        if is_hypercube(&req.body) {
                            self.hypercube_hit_us.push(us);
                        }
                    }
                    bodies[i] = body;
                }
                Ok((status, _)) => {
                    eprintln!("request answered {status}: {}", req.body);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("transport error: {e}");
                    failed += 1;
                }
            }
        }
        self.untraced_passes += 1;
        if let Some(handle) = &self.handle {
            let after = server_counts(handle.service());
            for ((sum, a), b) in self.counts.iter_mut().zip(after).zip(before) {
                *sum += a - b;
            }
        }
        let canonical = canonical(&bodies);
        PassOutput {
            rendered: canonical.clone(),
            canonical,
            work: REQUESTS as u64,
            attempted: REQUESTS as u64,
            failed,
        }
    }

    fn traced_pass(
        &mut self,
        pass: usize,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> PassOutput {
        let requests = script(self.seed, pass, &self.warm);
        let instances_before = self.instances;
        let mut bodies = Vec::with_capacity(REQUESTS);
        let mut failed = 0;
        for req in &requests {
            match self.layer_request(&req.body, tracer) {
                Ok(body) => bodies.push(body.to_vec()),
                Err(e) => {
                    eprintln!("layer pipeline rejected a query: {e}");
                    bodies.push(Vec::new());
                    failed += 1;
                }
            }
        }
        counters.add(
            "faultmodel.instances",
            (self.instances - instances_before) as f64,
        );
        PassOutput {
            canonical: canonical(&bodies),
            rendered: String::new(),
            work: REQUESTS as u64,
            attempted: REQUESTS as u64,
            failed,
        }
    }

    /// Answers the warm set through the layer pipeline once, so the
    /// mirror's caches match the server's after its warm-up.
    fn prepare(&mut self) {
        self.mirror = Some(Mirror {
            responses: HashMap::new(),
            census: Mutex::new(LruCache::new(CACHE_CAPACITY)),
        });
        let mut off = Tracer::disabled();
        for query in self.warm.clone() {
            self.layer_request(&query, &mut off)
                .expect("warm queries are valid");
        }
        self.samples.clear();
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        let classes: Vec<String> = self
            .class_latencies
            .iter()
            .map(|(class, v)| format!("{class}: {} samples, p50 {:.1} us", v.len(), median(v)))
            .collect();
        // Which class the clients spent their time waiting on.
        let total_us: f64 = self.class_latencies.values().flatten().sum();
        let shares: Vec<String> = self
            .class_latencies
            .iter()
            .map(|(class, v)| {
                let share = crate::ratio(v.iter().sum(), total_us);
                format!("{class}: {share:.3}")
            })
            .collect();
        let layer_samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, v)| format!("{name}: {} samples", v.len()))
            .collect();
        vec![
            ("workers", WORKERS.to_string()),
            ("clients", format!("{CLIENTS} (closed loop)")),
            ("threads", "1 (server MEASURE_THREADS)".into()),
            ("lanes", "64 (server TRIAL_LANES)".into()),
            ("cache_capacity", CACHE_CAPACITY.to_string()),
            (
                "mix_per_pass",
                format!(
                    "{REQUESTS} requests: {WARM} response hits, {} census hits, {} cold \
                     (assumed sweep mix)",
                    2 * CENSUS_HITS_PER_CONFIG,
                    COLD
                ),
            ),
            ("class_latency", classes.join("; ")),
            ("class_time_share", shares.join("; ")),
            ("layer_samples", layer_samples.join("; ")),
            (
                "note",
                "end-to-end numbers include the server's always-on obs counting".into(),
            ),
            ("latency_op", "one request round trip".into()),
            ("work_unit", "requests".into()),
        ]
    }

    fn layer_metrics(&mut self, metrics: &mut BTreeMap<String, f64>) {
        let mut set = |name: &str, value: f64| metrics.insert(name.to_string(), value);
        for (name, samples) in &self.samples {
            set(name, median(samples));
        }
        // The hit path without transport: the same hypercube warm queries
        // through an in-process, warmed QueryService.
        let service = QueryService::new(CACHE_CAPACITY);
        let hypercube: Vec<&String> = self.warm.iter().filter(|q| is_hypercube(q)).collect();
        let mut handle_us = Vec::new();
        for query in &hypercube {
            let request = Request {
                method: "POST".into(),
                target: "/query".into(),
                body: query.as_bytes().to_vec(),
            };
            service.handle(&request);
            for _ in 0..HANDLE_SAMPLES {
                let started = Instant::now();
                let response = service.handle(&request);
                handle_us.push(started.elapsed().as_secs_f64() * 1e6);
                assert_eq!(response.status, 200);
            }
        }
        let hit_handle = median(&handle_us);
        set("server.hit_handle_us", hit_handle);
        set(
            "server.transport_us",
            median(&self.hypercube_hit_us) - hit_handle,
        );
        if let Some(hits) = self.class_latencies.get("hit") {
            set("server.hit_latency_p50_us", median(hits));
        }
        if let Some(cold) = self.class_latencies.get("cold") {
            set("server.miss_latency_p50_ms", median(cold) / 1e3);
        }
        let [hits, misses, coalesced, census_hits, census_misses] = self.counts.map(|n| n as f64);
        let passes = self.untraced_passes.max(1) as f64;
        let lookups = hits + misses + coalesced;
        set("server.response_hit_ratio", crate::ratio(hits, lookups));
        set("server.requests", lookups / passes);
        set("server.coalesced", coalesced / passes);
        let census_lookups = census_hits + census_misses;
        set(
            "server.census_hit_ratio",
            crate::ratio(census_hits, census_lookups),
        );
        set("server.census_lookups", census_lookups / passes);
    }

    fn final_checks(&mut self) -> (u64, u64) {
        let reply = roundtrip(&self.addr, "POST", "/query", GOLDEN_QUERY.as_bytes());
        match reply {
            Ok((200, body)) if body == GOLDEN_BODY => (1, 0),
            _ => {
                eprintln!("mismatch: the canned query no longer matches the golden body");
                (1, 1)
            }
        }
    }
}
