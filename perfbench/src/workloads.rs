//! The two workloads. Each builds its inputs from the seed, sets up its
//! serving stack several times (median = `setup_s`), drives it closed-loop
//! for the run's seconds, and byte-checks every answer against an
//! in-process oracle. Traced runs (`--trace 1`) split the loop into an
//! untraced and a traced half and then run the per-layer ladder.

use crate::gen::{self, Req, Rng, Space, Stream, BIN, BIN_DIM, CONT, CONT_DIM};
use crate::harness::{
    closed_loop, engine_config, host_factor, host_probe, median, ms, peak_rss_mb, pipeline,
    quantile, repeated_setup, roundtrip, sorted, ConnOut, Served, Tracer, HOST_PROBE_EVERY,
};
use crate::ladder::{self, Ladder, Layers, ServerSide};
use crate::{Opts, Report};
use knn_engine::{textfmt, EngineConfig, ExplanationEngine};
use knn_server::Client;
use std::sync::Mutex;
use std::time::Instant;

pub const NAMES: &[&str] = &["explain_mix", "warm_session"];

/// Seed of the fixed datasets (see [`explain_tenants`]).
const DATA_SEED: u64 = 2025;
/// Points in the continuous and binary explanation tenants.
const CONT_N: usize = 100;
const BIN_N: usize = 100;
/// Effort budget of the explanation tenants (greedy hitting sets / CDCL
/// conflicts): bounds ℓ2/Hamming minimum-SR and the Hamming and ℓ1
/// counterfactual tails.
const BUDGET: Option<u64> = Some(2000);
/// Distinct requests in the warm pool.
const POOL_N: usize = 256;
/// An untraced run's closed loop is cut into this many slices of equal
/// length, and after each slice the run times a share of its `batch_qps`
/// batches and writes. The host's speed on the reference VM swings by ±20%
/// in steps that last tens of seconds, so batches timed in one block after
/// the loop saw another host than the loop did (`explain_mix` `batch_qps`
/// spread 0.23–0.26 over ten runs). Spread over the run, they average over
/// the same stretch of time as the loop.
const SLICES: usize = 10;
/// `batch_qps` batches after each slice. `explain_mix` batches are one
/// schedule period each, so every batch sends the same mix; a warm batch
/// is the pool repeated BATCH_REPEAT times, so thread start-up per batch
/// does not dominate.
const EXPLAIN_BATCHES: usize = 2;
const WARM_BATCHES: usize = 6;
const BATCH_REPEAT: usize = 32;
/// The traced runs' mutation probe works on a fixed continuous tenant of
/// this many points: the size at which a write's O(n) epoch clone and the
/// index rebuilds after it take milliseconds. It caches a hot set of
/// PROBE_HOT classify answers and makes PROBE_WRITES writes.
const PROBE_N: usize = 100_000;
const PROBE_HOT: usize = 64;
const PROBE_WRITES: usize = 16;
/// Writes timed after each slice (the loops send none): this many
/// connections, each sending this many writes (WRITE_CONNS x
/// SLICES connections per run). The server runs each connection on its own
/// threads, and where the scheduler places them against the client's thread
/// moved the median ack of a 100-write burst between 0.027 and 0.074 ms;
/// many short connections average that out.
const WRITE_CONNS: usize = 8;
const WRITE_BURST: usize = 100;
/// The tenant those writes go to: a copy of `cont` loaded after set-up, so
/// the writes change neither what the oracle checks nor the warm pool's
/// cached answers.
const WRITES: &str = "w";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Requests timed at every ladder rung: one period of the `explain_mix`
/// cell schedule, so every cell of the mix is sampled at its weight.
const LADDER_N: usize = gen::period(gen::MIX);

pub fn run(o: &Opts) -> Report {
    let mut report = match o.workload.as_str() {
        "explain_mix" => explain_mix(o),
        "warm_session" => warm_session(o),
        other => unreachable!("workload `{other}` passed argument validation"),
    };
    report.correct = report.failed == 0 && report.attempted > 0;
    report
}

/// Closed-loop connections. One: two closed-loop connections
/// on two CPUs keep both CPUs busy with the serving threads, the shadow
/// auditor and the load generator, and latency then follows the
/// scheduler (warm `qps` spread 26% between runs against 5% with one;
/// `explain_mix` `p50_ms` spread 30%).
const LOOP_CONNS: usize = 1;

/// Identifies the code under test: the git commit when the tree is a
/// checkout with `.git`, otherwise a digest of the sources that build it.
pub fn source_id() -> String {
    let head = std::fs::read_to_string(".git/HEAD").ok().and_then(|h| {
        let h = h.trim();
        match h.strip_prefix("ref: ") {
            Some(r) => {
                std::fs::read_to_string(format!(".git/{r}")).ok().map(|s| s.trim().to_string())
            }
            None => Some(h.to_string()),
        }
    });
    head.unwrap_or_else(|| {
        let mut files = Vec::new();
        for root in ["crates", "src", "perfbench/src"] {
            collect(std::path::Path::new(root), &mut files);
        }
        files.push("Cargo.lock".into());
        files.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in files {
            for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).unwrap_or_default()) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("source-fnv64:{h:016x}")
    })
}

fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

fn is_error(resp: &str) -> bool {
    resp.contains("\"ok\":false")
}

fn lines(reqs: &[Req]) -> Vec<String> {
    reqs.iter().map(|r| r.line.clone()).collect()
}

// ------------------------------------------------------------ shared pieces

/// The two explanation tenants' dataset texts. Datasets are part of the
/// workload's definition and do not change with the seed: the seed draws
/// the request stream. (Per-query cost on the ℓ2 region routes depends
/// strongly on the point set; drawing it per seed moved `qps` by 23%
/// between seeds.)
fn explain_tenants() -> (String, String) {
    let mut rng = Rng::new(DATA_SEED, 1);
    let cont = gen::continuous_text(&mut rng, CONT_N, CONT_DIM);
    let bin = gen::binary_text(&mut rng, BIN_N, BIN_DIM);
    (cont, bin)
}

/// Fresh in-process engines for the explanation tenants: the byte oracle.
struct Oracle {
    cont: ExplanationEngine,
    bin: ExplanationEngine,
}

impl Oracle {
    fn new(cfg: &EngineConfig, cont: &str, bin: &str) -> Oracle {
        let e = |t: &str| {
            ExplanationEngine::new(textfmt::parse_dataset(t).expect("dataset parses"), cfg.clone())
        };
        Oracle { cont: e(cont), bin: e(bin) }
    }

    fn run(&self, reqs: &[Req]) -> (Vec<String>, f64) {
        run_split(&self.cont, &self.bin, reqs)
    }
}

/// Answers `reqs` as two JSON-lines batches, one per explanation tenant,
/// and returns the response lines in request order plus the wall time.
fn run_split(
    cont: &ExplanationEngine,
    bin: &ExplanationEngine,
    reqs: &[Req],
) -> (Vec<String>, f64) {
    let mut out = vec![String::new(); reqs.len()];
    let t0 = Instant::now();
    for (space, engine) in [(Space::Continuous, cont), (Space::Binary, bin)] {
        let idx: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].space == space).collect();
        let input: Vec<&str> = idx.iter().map(|&i| reqs[i].line.as_str()).collect();
        let (text, _) = engine.run_jsonl(&input.join("\n"));
        for (i, line) in idx.iter().zip(text.lines()) {
            out[*i] = line.to_string();
        }
    }
    (out, t0.elapsed().as_secs_f64())
}

/// A closed query loop over pre-made lines: `next` picks each
/// connection's next request index, `check` judges the answer (error lines
/// always fail). Spans go to `tracer` when one is given. Each connection
/// runs the host-speed probe first and then every HOST_PROBE_EVERY, between two
/// requests, while none of its requests is in flight.
fn query_loop<S: Send>(
    addr: std::net::SocketAddr,
    states: Vec<S>,
    seconds: f64,
    tracer: Option<&Tracer>,
    next: impl Fn(&mut S) -> (usize, String) + Sync,
    check: impl Fn(&mut S, usize, String) -> bool + Sync,
) -> (Vec<(S, ConnOut)>, f64) {
    let states: Vec<(S, ConnOut, Client)> = states
        .into_iter()
        .map(|s| (s, ConnOut::reserved(seconds), Client::connect(addr).expect("connect")))
        .collect();
    let (done, wall) = closed_loop(states, seconds, |_, (s, out, client), deadline| {
        let mut spans = Vec::new();
        let conn_start = Instant::now();
        let mut probed: Option<Instant> = None;
        while Instant::now() < deadline {
            if probed.is_none_or(|p| p.elapsed() >= HOST_PROBE_EVERY) {
                let p = host_probe();
                out.probe_ms.push(p);
                out.probe_s += p / 1e3;
                probed = Some(Instant::now());
            }
            let (idx, line) = next(s);
            out.attempted += 1;
            match roundtrip(client, &line) {
                Ok((resp, t0, t1)) => {
                    out.lat_ms.push(ms(t0, t1));
                    if tracer.is_some() {
                        spans.push((idx as u64 + 1, t0, t1));
                    }
                    if is_error(&resp) || !check(s, idx, resp) {
                        out.failed += 1;
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    break;
                }
            }
        }
        if let Some(t) = tracer {
            let parent = t.reserve();
            for (req, t0, t1) in spans {
                t.record("loop.query", parent, req, t0, t1);
            }
            t.close(parent, "loop.conn", 0, conn_start, Instant::now());
        }
    });
    (done.into_iter().map(|(s, out, _)| (s, out)).collect(), wall)
}

/// A stretch of the closed loop: each connection's outcome and the wall
/// time.
type Slice<C> = (Vec<C>, f64);

/// The measured closed loop, as passes of slices. An untraced run makes
/// one pass of SLICES slices over the whole run and calls `between` after
/// each slice with the slice's host factor: the work timed between slices
/// is scaled by the factor of the loop time just before it. A traced run
/// makes an untraced pass and then a traced pass of half the time each,
/// one slice each, and calls nothing between. `run` gets the slice's
/// length, tracer and index (unique in the run).
fn passes<C>(
    o: &Opts,
    tracer: &Tracer,
    run: impl Fn(f64, Option<&Tracer>, u64) -> Slice<C>,
    out: impl Fn(&C) -> &ConnOut + Copy,
    mut between: impl FnMut(f64),
) -> Vec<Vec<Slice<C>>> {
    if o.trace {
        vec![vec![run(o.seconds / 2.0, None, 0)], vec![run(o.seconds / 2.0, Some(tracer), 1)]]
    } else {
        let slice = o.seconds / SLICES as f64;
        vec![(0..SLICES as u64)
            .map(|s| {
                let done = run(slice, None, s);
                between(slice_factor(&done, out));
                done
            })
            .collect()]
    }
}

/// The host factor of a slice: from every probe its connections ran.
fn slice_factor<C>(slice: &Slice<C>, out: impl Fn(&C) -> &ConnOut) -> f64 {
    let probes: Vec<f64> = slice.0.iter().flat_map(|c| out(c).probe_ms.iter().copied()).collect();
    host_factor(&probes)
}

/// Queries answered per second of loop time in one pass, and the same
/// with each slice's loop time scaled by its host factor. Time spent in
/// probes is not loop time.
fn pass_qps<C>(pass: &[Slice<C>], out: impl Fn(&C) -> &ConnOut + Copy) -> (f64, f64) {
    let (mut answered, mut secs, mut scaled) = (0usize, 0.0, 0.0);
    for slice in pass {
        let conns = slice.0.len().max(1) as f64;
        let probing: f64 = slice.0.iter().map(|c| out(c).probe_s).sum::<f64>() / conns;
        answered += slice.0.iter().map(|c| out(c).lat_ms.len()).sum::<usize>();
        secs += slice.1 - probing;
        scaled += (slice.1 - probing) * slice_factor(slice, out);
    }
    (answered as f64 / secs, answered as f64 / scaled)
}

/// Every connection outcome of every slice of every pass.
fn conns<C>(passes: &[Vec<Slice<C>>]) -> impl Iterator<Item = &C> {
    passes.iter().flatten().flat_map(|s| &s.0)
}

/// Folds the connections' outcomes into the report's op accounting and
/// returns their query latencies, ascending: as measured, and each scaled
/// by its slice's host factor.
fn account<C>(
    report: &mut Report,
    passes: &[Vec<Slice<C>>],
    out: impl Fn(&C) -> &ConnOut + Copy,
) -> (Vec<f64>, Vec<f64>) {
    let (mut lat, mut scaled) = (Vec::new(), Vec::new());
    for slice in passes.iter().flatten() {
        let factor = slice_factor(slice, out);
        for o in slice.0.iter().map(out) {
            report.attempted += o.attempted;
            report.failed += o.failed;
            lat.extend_from_slice(&o.lat_ms);
            scaled.extend(o.lat_ms.iter().map(|l| l * factor));
        }
    }
    (sorted(lat), sorted(scaled))
}

/// The latency metrics, from latencies scaled by their host factor; the
/// measured ones go to provenance. The 99th percentile goes to provenance
/// only: on `warm_session` it followed the host's state twice as far as
/// `qps` did (spread 0.28 over ten runs where `qps` spread 0.16).
fn latency_metrics(report: &mut Report, lat: &[f64], raw: &[f64]) {
    report.metric("p50_ms", "ms", quantile(lat, 0.5));
    report.metric("p90_ms", "ms", quantile(lat, 0.9));
    report.info("p99_ms", quantile(lat, 0.99));
    report.info("measured_p50_ms", quantile(raw, 0.5));
    report.info("measured_p90_ms", quantile(raw, 0.9));
    report.info("latency_samples", lat.len());
    let deciles: Vec<String> =
        (1..10).map(|d| format!("{:.4}", quantile(lat, d as f64 / 10.0))).collect();
    report.info("latency_deciles_ms", deciles.join(","));
}

/// `write_p50_ms`: after each slice, WRITE_CONNS fresh connections each
/// send WRITE_BURST writes (alternating insert and remove) on the WRITES
/// tenant. The value is the mean over connections of each connection's
/// median ack round trip (thread placement sets a connection's level, see
/// WRITE_CONNS, so one median over all acks would jump with the share of
/// well-placed connections), scaled by the host factor of the slice before
/// the burst.
struct Writes {
    addr: std::net::SocketAddr,
    rng: Rng,
    points: usize,
    medians: Vec<f64>,
    measured: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Writes {
    /// Loads the WRITES tenant (a copy of `cont`) on the server at `addr`.
    fn load(addr: std::net::SocketAddr, o: &Opts, cont: &str) -> Writes {
        let line = format!(
            r#"{{"id":"l","verb":"load","name":"{WRITES}","text":{}}}"#,
            crate::json_str(cont)
        );
        let ok = !is_error(&pipeline(addr, &[line])[0]);
        let (attempted, failed) = (1, !ok as u64);
        let (medians, measured) = (Vec::new(), Vec::new());
        let rng = Rng::new(o.seed, 9);
        Writes { addr, rng, points: CONT_N, medians, measured, attempted, failed }
    }

    fn burst(&mut self, factor: f64) {
        for _ in 0..WRITE_CONNS {
            let mut client = Client::connect(self.addr).expect("connect");
            let mut acks = Vec::with_capacity(WRITE_BURST);
            for i in 0..WRITE_BURST {
                let line = write_op(&mut self.rng, WRITES, &mut self.points, i % 2 == 0);
                self.attempted += 1;
                match roundtrip(&mut client, &line) {
                    Ok((resp, t0, t1)) if !is_error(&resp) => acks.push(ms(t0, t1)),
                    _ => self.failed += 1,
                }
            }
            let median = quantile(&sorted(acks), 0.5);
            self.medians.push(median * factor);
            self.measured.push(median);
        }
    }

    /// Folds the writes into the report and returns `write_p50_ms`.
    fn finish(self, report: &mut Report) -> f64 {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.info("write_samples", format!("{}x{WRITE_BURST}", self.medians.len()));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        report.info("measured_write_p50_ms", mean(&self.measured));
        mean(&self.medians)
    }
}

/// One write line against `tenant`: an insert of a random labelled point,
/// or the removal of a random index.
fn write_op(rng: &mut Rng, tenant: &str, points: &mut usize, insert: bool) -> String {
    if insert {
        let p: Vec<String> =
            (0..CONT_DIM).map(|_| ((rng.unit() * 1000.0).floor() / 1000.0).to_string()).collect();
        let sign = if rng.unit() < 0.5 { "+" } else { "-" };
        *points += 1;
        format!(
            r#"{{"id":"w","verb":"insert","name":"{tenant}","label":"{sign}","point":[{}]}}"#,
            p.join(",")
        )
    } else {
        let id = rng.below(*points);
        *points -= 1;
        format!(r#"{{"id":"w","verb":"remove","name":"{tenant}","index":{id}}}"#)
    }
}

/// The traced pass's throughput cost against the untraced pass.
fn trace_overhead(layers: &mut Layers, untraced_qps: f64, traced_qps: f64, report: &mut Report) {
    layers.set("bench.trace_overhead_frac", 1.0 - traced_qps / untraced_qps);
    report.info("bench.trace_overhead_frac.base_qps", format!("{untraced_qps:.1}"));
}

fn write_spans(tracer: &Tracer, o: &Opts, report: &mut Report) {
    let path =
        std::path::PathBuf::from(format!(".bench_out/spans-{}-seed{}.jsonl", o.workload, o.seed));
    match tracer.write(&path) {
        Ok(()) => report.info("spans", path.display()),
        Err(e) => report.info("spans_error", e),
    }
}

// ------------------------------------------------------------- explain_mix

fn explain_mix(o: &Opts) -> Report {
    let mut report = Report::default();
    let (cont, bin) = explain_tenants();
    let tenants = [(CONT, cont.as_str()), (BIN, bin.as_str())];
    // Set-up runs every cell once on fixed points, so every run's set-up
    // does the same work (a 2 ms artifact-only warm-up moved 22% between
    // runs).
    let warmers = gen::warmers(&mut Rng::new(DATA_SEED, 3), gen::MIX);
    let warm_lines = lines(&warmers);
    let cfg = engine_config(BUDGET);
    report.info("cont_points", CONT_N);
    report.info("bin_points", BIN_N);
    report.info("effort_budget", BUDGET.unwrap_or(0));

    let mut setup_failed = 0u64;
    let (served, setup_s, setups) = repeated_setup(
        if o.trace { 1 } else { SETUP_REPS },
        || {
            let t0 = Instant::now();
            let s = Served::start(&cfg, &tenants);
            setup_failed +=
                pipeline(s.addr(), &warm_lines).iter().filter(|r| is_error(r)).count() as u64;
            (s, t0.elapsed().as_secs_f64())
        },
        Served::stop,
    );
    report.info("measured_setups_s", format!("{setups:?}"));

    // Every request is new: a shared stream hands out distinct requests,
    // and `issued` keeps them for the oracle.
    let feed = Mutex::new((Stream::new(Rng::new(o.seed, 3), gen::MIX, "m"), Vec::<Req>::new()));
    let next = |_: &mut Vec<(usize, String)>| {
        let mut f = feed.lock().expect("feed lock");
        let r = f.0.next_req();
        let line = r.line.clone();
        f.1.push(r);
        (f.1.len() - 1, line)
    };
    let keep = |got: &mut Vec<(usize, String)>, idx: usize, resp: String| {
        got.push((idx, resp));
        true
    };
    // `xknn batch` throughput: the serving tenants' own engines answer
    // batches of new requests through `run_jsonl`, each batch one schedule
    // period long, so the batch size does not depend on how many requests
    // the loop got through.
    let (cont_engine, bin_engine) = (&served.tenant(CONT).engine, &served.tenant(BIN).engine);
    let mut batch_stream = Stream::new(Rng::new(o.seed, 10), gen::MIX, "b");
    let period = gen::period(gen::MIX);
    let mut batch_rates = Vec::with_capacity(SLICES * EXPLAIN_BATCHES);
    let mut writes = (!o.trace).then(|| Writes::load(served.addr(), o, &cont));
    let mut batch_measured = Vec::with_capacity(SLICES * EXPLAIN_BATCHES);
    let between = |factor: f64| {
        for _ in 0..EXPLAIN_BATCHES {
            let reqs = batch_stream.take(period);
            let rate = period as f64 / run_split(cont_engine, bin_engine, &reqs).1;
            batch_rates.push(rate / factor);
            batch_measured.push(rate);
        }
        if let Some(w) = writes.as_mut() {
            w.burst(factor);
        }
    };

    let before = ServerSide::scrape(served.addr());
    let tracer = Tracer::new();
    let loops = passes(
        o,
        &tracer,
        |secs, t, _| query_loop(served.addr(), vec![Vec::new(); LOOP_CONNS], secs, t, next, keep),
        |(_, c): &(_, ConnOut)| c,
        between,
    );
    let peak = peak_rss_mb();
    let after = ServerSide::scrape(served.addr());
    let serving_stats: Vec<_> = served.tenants.iter().map(|t| t.engine.stats()).collect();
    let write_ms = writes.map_or(0.0, |w| w.finish(&mut report));
    served.stop();

    let (raw_lat, lat) = account(&mut report, &loops, |(_, c)| c);
    report.failed += setup_failed;

    // The oracle: fresh engines, artifacts prebuilt like the server's,
    // answer every issued request as `xknn batch` would.
    let issued = feed.into_inner().expect("feed lock").1;
    let oracle = Oracle::new(&cfg, &cont, &bin);
    oracle.run(&warmers);
    let (expected, _) = oracle.run(&issued);
    drop(oracle);
    let mismatches = conns(&loops)
        .flat_map(|(got, _)| got.iter())
        .filter(|(idx, resp)| !is_error(resp) && expected[*idx] != *resp)
        .count();
    report.failed += mismatches as u64;
    report.info("issued", issued.len());

    let qps = |i: usize| pass_qps(&loops[i], |(_, c): &(_, ConnOut)| c);
    if o.trace {
        let mut layers = Layers::default();
        trace_overhead(&mut layers, qps(0).1, qps(1).1, &mut report);
        after.report_since(&before, &mut layers, &mut report);
        ladder::memory(&serving_stats, &mut layers);
        let mut sample_stream = Stream::new(Rng::new(o.seed, 4), gen::MIX, "s");
        let sample = lines(&sample_stream.take(LADDER_N));
        ladder::run(
            &Ladder {
                tenants: &tenants,
                engine: &cfg,
                warm: &warm_lines,
                sample: &sample,
                warm_regime: false,
            },
            &tracer,
            &mut layers,
            &mut report,
        );
        delta_probe(o, &tracer, &mut layers);
        write_spans(&tracer, o, &mut report);
        layers.emit(&mut report);
    } else {
        let (measured_qps, qps) = qps(0);
        report.metric("qps", "1/s", qps);
        report.info("measured_qps", measured_qps);
        report.info("host_factor", measured_qps / qps);
        latency_metrics(&mut report, &lat, &raw_lat);
        report.metric("write_p50_ms", "ms", write_ms);
        report.metric("batch_qps", "1/s", median(&batch_rates));
        report.info("measured_batch_qps", median(&batch_measured));
        report.info("batch_samples", format!("{}x{period}", batch_rates.len()));
        report.metric("setup_s", "s", setup_s);
        report.metric("peak_rss_mb", "MiB", peak);
    }
    report
}

// ------------------------------------------------------------ warm_session

fn warm_session(o: &Opts) -> Report {
    let mut report = Report::default();
    let (cont, bin) = explain_tenants();
    let tenants = [(CONT, cont.as_str()), (BIN, bin.as_str())];
    // The pool is fixed like the datasets (set-up computes it, and a
    // per-seed pool made set-up time depend on the seed); the seed draws
    // each connection's replay order.
    let pool = Stream::new(Rng::new(DATA_SEED, 4), gen::POOL, "p").take(POOL_N);
    let pool_lines = lines(&pool);
    let cfg = engine_config(BUDGET);
    report.info("cont_points", CONT_N);
    report.info("bin_points", BIN_N);
    report.info("pool", POOL_N);

    // The oracle answers the pool once, cold.
    let (expected, _) = Oracle::new(&cfg, &cont, &bin).run(&pool);

    let mut setup_failed = 0u64;
    let (served, setup_s, setups) = repeated_setup(
        if o.trace { 1 } else { SETUP_REPS },
        || {
            let t0 = Instant::now();
            let s = Served::start(&cfg, &tenants);
            let got = pipeline(s.addr(), &pool_lines);
            setup_failed += got.iter().zip(&expected).filter(|(g, e)| g != e).count() as u64;
            (s, t0.elapsed().as_secs_f64())
        },
        Served::stop,
    );
    report.info("measured_setups_s", format!("{setups:?}"));

    // In each slice, each connection cycles its own shuffle of the pool.
    let states = |slice: u64| -> Vec<(Vec<usize>, usize)> {
        (0..LOOP_CONNS as u64)
            .map(|c| {
                let mut order: Vec<usize> = (0..POOL_N).collect();
                let mut rng = Rng::new(o.seed, 100 + 10 * slice + c);
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                (order, 0)
            })
            .collect()
    };
    let next = |(order, pos): &mut (Vec<usize>, usize)| {
        let idx = order[*pos % order.len()];
        *pos += 1;
        (idx, pool_lines[idx].clone())
    };
    let check = |_: &mut (Vec<usize>, usize), idx: usize, resp: String| resp == expected[idx];

    // `xknn batch` throughput on a warm session: the serving tenants' own
    // engines, which hold the pool, answer the pool repeated BATCH_REPEAT
    // times through `run_jsonl`.
    let session: Vec<Req> = (0..BATCH_REPEAT).flat_map(|_| pool.iter().cloned()).collect();
    let (cont_engine, bin_engine) = (&served.tenant(CONT).engine, &served.tenant(BIN).engine);
    let mut batch_rates = Vec::with_capacity(SLICES * WARM_BATCHES);
    let mut batch_failed = 0u64;
    let mut writes = (!o.trace).then(|| Writes::load(served.addr(), o, &cont));
    let mut batch_measured = Vec::with_capacity(SLICES * WARM_BATCHES);
    let between = |factor: f64| {
        for _ in 0..WARM_BATCHES {
            let (got, secs) = run_split(cont_engine, bin_engine, &session);
            let wrong = got.iter().zip(expected.iter().cycle()).filter(|(g, e)| g != e).count();
            batch_failed += wrong as u64;
            let rate = session.len() as f64 / secs;
            batch_rates.push(rate / factor);
            batch_measured.push(rate);
        }
        if let Some(w) = writes.as_mut() {
            w.burst(factor);
        }
    };

    let before = ServerSide::scrape(served.addr());
    let tracer = Tracer::new();
    let loops = passes(
        o,
        &tracer,
        |secs, t, s| query_loop(served.addr(), states(s), secs, t, next, check),
        |(_, c): &(_, ConnOut)| c,
        between,
    );
    let peak = peak_rss_mb();
    let after = ServerSide::scrape(served.addr());
    let serving_stats: Vec<_> = served.tenants.iter().map(|t| t.engine.stats()).collect();
    let write_ms = writes.map_or(0.0, |w| w.finish(&mut report));
    served.stop();

    let (raw_lat, lat) = account(&mut report, &loops, |(_, c)| c);
    // Every batch answer is checked against the pool's oracle lines too.
    report.attempted += (batch_rates.len() * session.len()) as u64;
    report.failed += setup_failed + batch_failed;

    let qps = |i: usize| pass_qps(&loops[i], |(_, c): &(_, ConnOut)| c);
    if o.trace {
        let mut layers = Layers::default();
        trace_overhead(&mut layers, qps(0).1, qps(1).1, &mut report);
        after.report_since(&before, &mut layers, &mut report);
        ladder::memory(&serving_stats, &mut layers);
        let sample: Vec<String> = pool_lines.iter().take(LADDER_N).cloned().collect();
        ladder::run(
            &Ladder {
                tenants: &tenants,
                engine: &cfg,
                warm: &pool_lines,
                sample: &sample,
                warm_regime: true,
            },
            &tracer,
            &mut layers,
            &mut report,
        );
        delta_probe(o, &tracer, &mut layers);
        write_spans(&tracer, o, &mut report);
        layers.emit(&mut report);
    } else {
        let (measured_qps, qps) = qps(0);
        report.metric("qps", "1/s", qps);
        report.info("measured_qps", measured_qps);
        report.info("host_factor", measured_qps / qps);
        latency_metrics(&mut report, &lat, &raw_lat);
        report.metric("write_p50_ms", "ms", write_ms);
        report.metric("batch_qps", "1/s", median(&batch_rates));
        report.info("measured_batch_qps", median(&batch_measured));
        report.info("batch_samples", format!("{}x{}", batch_rates.len(), session.len()));
        report.metric("setup_s", "s", setup_s);
        report.metric("peak_rss_mb", "MiB", peak);
    }
    report
}

// ---------------------------------------------------------- mutation probe

/// The traced runs' mutation probe (`delta.*`, `artifacts.rebuild_ms_per_write`,
/// `artifacts.carried_rate`), in-process on a fixed PROBE_N-point
/// continuous tenant.
fn delta_probe(o: &Opts, tracer: &Tracer, layers: &mut Layers) {
    let text = gen::continuous_text(&mut Rng::new(DATA_SEED, 2), PROBE_N, CONT_DIM);
    let hot = classify_lines(&mut Rng::new(o.seed, 5), CONT, PROBE_HOT);
    let mut rng = Rng::new(o.seed, 6);
    ladder::mutation_probe(
        &text,
        &engine_config(None),
        &hot,
        &mut rng,
        PROBE_WRITES,
        tracer,
        layers,
    );
}

/// `n` distinct classify lines (ℓ2/ℓ1, k ∈ {1,3}) against `tenant`.
fn classify_lines(rng: &mut Rng, tenant: &str, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let metric = if rng.unit() < 0.5 { "l2" } else { "l1" };
            let k = if rng.unit() < 0.5 { 1 } else { 3 };
            let point = gen::point(rng, Space::Continuous);
            gen::query_line(tenant, &format!("h{i}"), "classify", metric, k, &point, None)
        })
        .collect()
}
