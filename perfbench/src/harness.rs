//! Shared machinery: in-process servers and routers, the closed-loop
//! driver, spans, order statistics and process memory.

use knn_cluster::{LoadSource, Router, RouterConfig, RouterHandle};
use knn_engine::EngineConfig;
use knn_server::{Client, Server, ServerConfig, ServerHandle, Tenant};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

// ---------------------------------------------------------------- order stats

/// Nearest-rank quantile of an ascending slice (`q` in (0, 1]).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

// --------------------------------------------------------------------- memory

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS watermark at the current resident set, so input
/// generation before set-up does not count toward the serving peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

// ---------------------------------------------------------------------- spans

/// One timed call into a layer, from the benchmark's side of the call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Request id the span served (0 for grouping spans).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store. Only traced runs create one; untraced runs read
/// no span clock.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span { id, parent, name, req, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Reserves an id for a grouping span whose children are recorded
    /// before it closes.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn close(&self, id: u64, name: &'static str, parent: u64, start: Instant, end: Instant) {
        let span =
            Span { id, parent, name, req: 0, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Per-call durations (µs) of every span named `name`, in request order.
    pub fn durations(&self, name: &str) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> =
            self.spans().iter().filter(|s| s.name == name).map(|s| (s.req, s.us())).collect();
        v.sort_by_key(|&(req, _)| req);
        v
    }

    /// Median duration (µs) of the spans named `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations(name).iter().map(|&(_, us)| us).collect::<Vec<_>>())
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","req":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

// ----------------------------------------------------------------- host speed

/// The probe's median time on the reference 2-vCPU VM, ms. A host factor
/// of 1 means the host ran the probe at this speed.
const HOST_PROBE_REF_MS: f64 = 0.36;
/// How often a loop connection runs the probe between two of its requests.
pub const HOST_PROBE_EVERY: Duration = Duration::from_millis(25);
/// Probes run before each set-up.
const HOST_PROBE_BLOCK: usize = 9;

/// Times one fixed piece of CPU work that uses none of the repository's
/// code, so no change to the program under test changes it: a sort
/// (branches), distance scans over a small point set (floating point, as
/// in the kNN kernels), number formatting (as in serialization) and a
/// chain of dependent reads through a 4 MiB table, twice the L2 cache of
/// a reference-VM core (a served request's data crosses cores through the
/// shared cache).
/// Returns its time, ms.
pub fn host_probe() -> f64 {
    use std::fmt::Write as _;
    static AT: AtomicU64 = AtomicU64::new(0);
    let chain = host_probe_chain();
    let t0 = Instant::now();
    // Each probe walks on from where the last one stopped, so its reads
    // miss the core's cache.
    let mut at = AT.load(Ordering::Relaxed) as usize;
    for _ in 0..2048 {
        at = chain[at] as usize;
    }
    AT.store(at as u64, Ordering::Relaxed);
    let mut rng = crate::gen::Rng::new(0x9e37, 0);
    let mut keys: Vec<u64> = (0..2048).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let points: Vec<f64> = (0..256 * 8).map(|_| rng.unit()).collect();
    let mut nearest = 0.0;
    for q in points.chunks(8).take(24) {
        nearest += points
            .chunks(8)
            .map(|p| p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
    }
    let mut text = String::new();
    for k in keys.iter().step_by(16) {
        let _ = write!(text, "{},", *k as f64 / 7.0);
    }
    std::hint::black_box((keys[1024], nearest, text.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// The probe's read chain: one random cycle through 4 MiB (Sattolo's
/// shuffle), built once.
fn host_probe_chain() -> &'static [u32] {
    static CHAIN: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    CHAIN.get_or_init(|| {
        let mut chain: Vec<u32> = (0..1u32 << 20).collect();
        let mut rng = crate::gen::Rng::new(0x9e37, 1);
        for i in (1..chain.len()).rev() {
            chain.swap(i, rng.below(i));
        }
        chain
    })
}

/// How much faster than the reference the host ran `probes` (their
/// median): a time measured beside them, multiplied by this factor, reads
/// as on the reference host; a rate is divided by it.
pub fn host_factor(probes: &[f64]) -> f64 {
    HOST_PROBE_REF_MS / median(probes)
}

// ------------------------------------------------------------------ the loop

/// What one closed-loop connection observed.
#[derive(Default)]
pub struct ConnOut {
    /// Round-trip latency of each answered query, ms.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Probe times between requests, ms, and the loop time they took, s.
    pub probe_ms: Vec<f64>,
    pub probe_s: f64,
}

impl ConnOut {
    /// Latency buffers reserved up front for a run of `seconds`: untouched
    /// capacity is not resident, and no doubling reallocation copies a
    /// buffer mid-run, so the samples move `peak_rss_mb` smoothly.
    pub fn reserved(seconds: f64) -> ConnOut {
        ConnOut { lat_ms: Vec::with_capacity((seconds * 100_000.0) as usize), ..ConnOut::default() }
    }
}

/// Runs `conn` once per connection on its own thread, all released
/// together, each looping until `deadline`. Returns the per-connection
/// results and the wall time from release until the last connection's
/// last answer.
pub fn closed_loop<S: Send>(
    states: Vec<S>,
    seconds: f64,
    conn: impl Fn(usize, &mut S, Instant) + Sync,
) -> (Vec<S>, f64) {
    let barrier = Barrier::new(states.len() + 1);
    let mut states = states;
    let mut started = Instant::now();
    std::thread::scope(|scope| {
        let conn = &conn;
        let barrier = &barrier;
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| {
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    conn(i, s, deadline);
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        for h in handles {
            h.join().expect("load-generator thread panicked");
        }
    });
    (states, started.elapsed().as_secs_f64())
}

/// One closed-loop round trip: `(response, start, end)`.
pub fn roundtrip(client: &mut Client, line: &str) -> io::Result<(String, Instant, Instant)> {
    let t0 = Instant::now();
    let resp = client.roundtrip(line)?;
    Ok((resp, t0, Instant::now()))
}

pub fn ms(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_secs_f64() * 1e3
}

// ------------------------------------------------------------ serving stacks

/// The engine configuration every serving stack and oracle uses: default
/// workers and cache, plus the effort budget that bounds the NP-hard tails.
pub fn engine_config(effort_budget: Option<u64>) -> EngineConfig {
    EngineConfig { effort_budget, ..EngineConfig::default() }
}

fn server_config(engine: &EngineConfig) -> ServerConfig {
    ServerConfig { engine: engine.clone(), ..ServerConfig::default() }
}

/// An in-process `knn-server` on a loopback port with preloaded tenants.
pub struct Served {
    pub handle: ServerHandle,
    pub tenants: Vec<Arc<Tenant>>,
}

impl Served {
    /// Binds, loads `tenants` (name, dataset text) and starts serving.
    /// Returns once the listener accepts; the caller warms it.
    pub fn start(engine: &EngineConfig, tenants: &[(&str, &str)]) -> Served {
        let server = Server::bind("127.0.0.1:0", server_config(engine)).expect("bind server");
        let tenants = tenants
            .iter()
            .map(|(name, text)| server.registry().load(name, text).expect("load tenant"))
            .collect();
        Served { handle: server.spawn(), tenants }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    pub fn tenant(&self, name: &str) -> &Arc<Tenant> {
        self.tenants.iter().find(|t| t.name == name).expect("tenant loaded")
    }

    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// An in-process `knn-cluster` router over in-process backends, every
/// tenant replicated on every backend, affinity routing on (the default).
pub struct Routed {
    pub router: RouterHandle,
    pub backends: Vec<ServerHandle>,
}

impl Routed {
    pub fn start(engine: &EngineConfig, backends: usize, tenants: &[(&str, &str)]) -> Routed {
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig { replication: backends, ..RouterConfig::default() },
        )
        .expect("bind router");
        let backends: Vec<ServerHandle> = (0..backends)
            .map(|_| {
                let h = Server::bind("127.0.0.1:0", server_config(engine))
                    .expect("bind backend")
                    .spawn();
                router.attach(h.addr());
                h
            })
            .collect();
        for (name, text) in tenants {
            router.load(name, LoadSource::Text(text), None).expect("load tenant on the router");
        }
        Routed { router: router.spawn(), backends }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.router.addr()
    }

    /// Blocks until the router has pushed `expected` cross-replica fills,
    /// or until the fill count stops moving for half a second.
    pub fn await_fills(&self, ctl: &mut Client, expected: u64) -> u64 {
        let mut last = (router_counter(ctl, "knn_router_fills_total"), Instant::now());
        while last.0 < expected && last.1.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(2));
            let now = router_counter(ctl, "knn_router_fills_total");
            if now != last.0 {
                last = (now, Instant::now());
            }
        }
        last.0
    }

    pub fn stop(self) {
        self.router.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// A counter sample from the `metrics` verb's exposition text.
pub fn router_counter(ctl: &mut Client, series: &str) -> u64 {
    let m = ctl.roundtrip(r#"{"id":"m","verb":"metrics"}"#).expect("metrics verb");
    m.rfind(&format!("{series} "))
        .map(|i| {
            m[i + series.len() + 1..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Cache hits and misses summed over tenants, from a router's `stats` verb.
pub fn router_cache(ctl: &mut Client) -> (u64, u64) {
    let s = ctl.roundtrip(r#"{"id":"s","verb":"stats"}"#).expect("stats verb");
    let v = knn_engine::json::parse(&s).expect("stats is JSON");
    let tenants = v.get("tenants").and_then(|t| t.as_array()).unwrap_or(&[]);
    let sum = |key: &str| tenants.iter().filter_map(|t| t.get(key)?.as_u64()).sum::<u64>();
    (sum("cache_hits"), sum("cache_misses"))
}

/// Sends `lines` pipelined on one connection and returns the responses.
pub fn pipeline(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let mut c = Client::connect(addr).expect("connect");
    c.run_stream(&lines.join("\n")).expect("pipelined stream")
}

/// Runs `setup` `reps` times, keeping the last instance alive; reports the
/// median set-up time, each time scaled by the host factor of the probes
/// run just before it, and the raw times. The peak-RSS watermark restarts
/// before the kept instance is built, so `peak_rss_mb` covers one serving
/// stack.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> (T, f64),
    teardown: impl Fn(T),
) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut scaled = Vec::with_capacity(reps);
    let mut kept = None;
    for r in 0..reps.max(1) {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let probes: Vec<f64> = (0..HOST_PROBE_BLOCK).map(|_| host_probe()).collect();
        let factor = host_factor(&probes);
        if r + 1 == reps.max(1) {
            reset_peak_rss();
        }
        let (inst, secs) = setup();
        times.push(secs);
        scaled.push(secs * factor);
        kept = Some(inst);
    }
    (kept.expect("at least one set-up"), median(&scaled), times)
}
