//! The traced run's per-layer measurements: the layer ladder (the same
//! requests timed at each layer's public entry point), server-side
//! counters scraped over the wire, and an in-process mutation probe.
//! Everything is timed from the benchmark's side of each call.

use crate::gen::Rng;
use crate::harness::{median, pipeline, router_cache, router_counter, Routed, Served, Tracer};
use crate::Report;
use knn_engine::json::Value;
use knn_engine::{
    exec, textfmt, ArtifactStore, EngineConfig, EngineStats, ExplanationEngine, Mutation, Request,
    RouteWorkSnapshot,
};
use knn_server::Client;
use knn_space::Label;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Planner route tags of the cells the workloads send (`engine.exec.<tag>.*`).
pub const TAGS: &[&str] = &[
    "kdtree-class-index",
    "hamming-index",
    "l2-lp-regions",
    "l1-witness",
    "hamming-witness-k1",
    "hamming-sat-check",
    "l2-greedy-deletion",
    "l1-greedy-deletion",
    "hamming-greedy-deletion",
    "hamming-greedy-deletion-sat",
    "l1-ihs-greedy",
    "hamming-ihs-greedy",
    "l2-qp-regions",
    "l1-heuristic-budgeted",
    "lp-heuristic",
    "hamming-sat-budgeted",
];

/// The per-layer metric names, in report order.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = [
        "rung.exec_us",
        "rung.engine_us",
        "rung.batch1_us",
        "rung.batchN_us",
        "rung.server_us",
        "rung.router_us",
        "server.self_us",
        "server.admission_wait_us",
        "server.requests",
        "server.errors",
        "cluster.self_us",
        "cluster.home_hit_rate",
        "cluster.fills",
        "engine.self_us",
        "engine.hit_rate",
        "engine.coalesced",
        "engine.batch_scaling",
        "telemetry.self_us",
        "lp.solves",
        "qp.solves",
        "index.kd_visits",
        "core.region_yields",
        "artifacts.build_ms",
        "artifacts.rebuild_ms_per_write",
        "artifacts.carried_rate",
        "delta.apply_us",
        "delta.read_stall_ms",
        "delta.revalidated_rate",
        "mem.dataset_mb",
        "mem.artifact_mb",
        "mem.memo_mb",
        "mem.cache_mb",
        "mem.log_mb",
        "bench.trace_overhead_frac",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for tag in TAGS {
        v.push(format!("engine.exec.{tag}.p50_us"));
        v.push(format!("engine.exec.{tag}.solve_us"));
    }
    v
}

/// The unit of a per-layer metric, from its name.
pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") || name.ends_with("_ms_per_write") {
        "ms"
    } else if name.ends_with("_mb") {
        "MiB"
    } else if name.ends_with("_rate") || name.ends_with("_frac") || name.ends_with("scaling") {
        "ratio"
    } else {
        "count"
    }
}

/// Per-layer values gathered during a traced run. Names that a workload
/// does not exercise stay absent and are reported as 0 (see README.md).
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Moves every per-layer metric into `report`, in [`names`] order.
    pub fn emit(self, report: &mut Report) {
        for name in names() {
            let v = self.0.get(&name).copied().unwrap_or(0.0);
            report.metric(name.clone(), unit(&name), v);
        }
    }
}

/// A request line resolved to its tenant index and engine request.
struct Line {
    tenant: usize,
    text: String,
    req: Request,
}

fn resolve(tenants: &[(&str, &str)], lines: &[String]) -> Vec<Line> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let v = knn_engine::json::parse(l).expect("generated line is JSON");
            let name = v.get("dataset").and_then(Value::as_str).expect("line names its tenant");
            let tenant = tenants.iter().position(|(n, _)| *n == name).expect("known tenant");
            let req =
                Request::from_json_line(l, &(i + 1).to_string()).expect("generated request parses");
            Line { tenant, text: l.clone(), req }
        })
        .collect()
}

/// What the ladder runs: tenants, the lines that warm every rung's target
/// (untimed), and the sample timed at every rung.
pub struct Ladder<'a> {
    pub tenants: &'a [(&'a str, &'a str)],
    pub engine: &'a EngineConfig,
    pub warm: &'a [String],
    pub sample: &'a [String],
    /// The sample is among the warm lines (cache hits above `exec`), so
    /// batch rungs may repeat it; otherwise every sample request is a miss.
    pub warm_regime: bool,
}

fn engines(l: &Ladder, cfg: &EngineConfig, telemetry: bool) -> Vec<ExplanationEngine> {
    l.tenants
        .iter()
        .map(|(name, text)| {
            let data = textfmt::parse_dataset(text).expect("dataset parses");
            let tel = knn_telemetry::Telemetry::new();
            tel.set_enabled(telemetry);
            ExplanationEngine::with_telemetry(data, cfg.clone(), tel, name)
        })
        .collect()
}

fn work(engines: &[ExplanationEngine]) -> Vec<RouteWorkSnapshot> {
    engines.iter().flat_map(|e| e.work_stats()).collect()
}

/// Runs the six rungs and derives rung medians, self times, per-route
/// exec costs and solver work counts.
pub fn run(l: &Ladder, tracer: &Tracer, out: &mut Layers, report: &mut Report) {
    let warm = resolve(l.tenants, l.warm);
    let sample = resolve(l.tenants, l.sample);
    let budget = l.engine.effort_budget;
    let rung = |name: &'static str| (name, tracer.reserve(), Instant::now());
    let close = |(name, id, t0): (&'static str, u64, Instant)| {
        tracer.close(id, name, 0, t0, Instant::now())
    };

    // exec::execute over prebuilt artifacts: no cache, no planner state.
    let r = rung("ladder.exec");
    let datas: Vec<_> =
        l.tenants.iter().map(|(_, t)| textfmt::parse_dataset(t).expect("dataset parses")).collect();
    let stores: Vec<ArtifactStore> = datas.iter().map(|_| ArtifactStore::new()).collect();
    for w in &warm {
        black_box(exec::execute(&datas[w.tenant], &stores[w.tenant], &w.req, budget));
    }
    let mut tags = Vec::with_capacity(sample.len());
    for (i, s) in sample.iter().enumerate() {
        let t0 = Instant::now();
        let resp = black_box(exec::execute(&datas[s.tenant], &stores[s.tenant], &s.req, budget));
        tracer.record("rung.exec", r.1, i as u64 + 1, t0, Instant::now());
        tags.push(resp.route.clone());
    }
    close(r);

    // ExplanationEngine::run, telemetry disabled (the `xknn batch` default)
    // and enabled (the serving default); cache state per the regime.
    let mut hits = vec![false; sample.len()];
    let mut engine_stats = Vec::new();
    let mut engine_work = Vec::new();
    for (span, telemetry) in [("rung.engine", false), ("rung.engine_tel", true)] {
        let r = rung(if telemetry { "ladder.engine_tel" } else { "ladder.engine" });
        let es = engines(l, l.engine, telemetry);
        for w in &warm {
            black_box(es[w.tenant].run(&w.req));
        }
        for (i, s) in sample.iter().enumerate() {
            let t0 = Instant::now();
            let (resp, trace) = es[s.tenant].run_with_trace(&s.req);
            tracer.record(span, r.1, i as u64 + 1, t0, Instant::now());
            black_box(resp);
            if !telemetry {
                hits[i] = matches!(trace.cache, "hit" | "revalidated");
            }
        }
        close(r);
        if telemetry {
            per_route_solve(&work(&es), out);
        } else {
            engine_stats = es.iter().map(|e| e.stats()).collect::<Vec<EngineStats>>();
            engine_work = work(&es);
        }
    }
    solver_counts(&engine_work, out);
    out.set(
        "artifacts.build_ms",
        engine_stats.iter().map(|s| s.artifact_build_us).sum::<u64>() as f64 / 1e3,
    );

    // run_jsonl at 1 and N workers: per-request time of whole batches.
    for (span, workers) in [("rung.batch1", 1usize), ("rung.batchN", 0)] {
        let r = rung(if workers == 1 { "ladder.batch1" } else { "ladder.batchN" });
        let cfg = EngineConfig { workers, ..l.engine.clone() };
        let es = engines(l, &cfg, false);
        let by_tenant = |lines: &[Line], t: usize| -> String {
            lines
                .iter()
                .filter(|x| x.tenant == t)
                .map(|x| x.text.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        };
        for (t, e) in es.iter().enumerate() {
            black_box(e.run_jsonl(&by_tenant(&warm, t)));
        }
        let batches: Vec<String> = (0..es.len()).map(|t| by_tenant(&sample, t)).collect();
        let passes = if l.warm_regime { 200 } else { 1 };
        for p in 0..passes {
            let t0 = Instant::now();
            for (e, b) in es.iter().zip(&batches) {
                black_box(e.run_jsonl(b));
            }
            tracer.record(span, r.1, p + 1, t0, Instant::now());
        }
        close(r);
    }

    // Client::roundtrip against a loopback server.
    let r = rung("ladder.server");
    let served = Served::start(l.engine, l.tenants);
    pipeline(served.addr(), l.warm);
    {
        let mut c = Client::connect(served.addr()).expect("connect");
        for (i, s) in sample.iter().enumerate() {
            let t0 = Instant::now();
            black_box(c.roundtrip(&s.text).expect("server roundtrip"));
            tracer.record("rung.server", r.1, i as u64 + 1, t0, Instant::now());
        }
    }
    served.stop();
    close(r);

    // Client::roundtrip through a router over two replicas.
    let r = rung("ladder.router");
    let routed = Routed::start(l.engine, 2, l.tenants);
    pipeline(routed.addr(), l.warm);
    {
        let mut ctl = Client::connect(routed.addr()).expect("connect");
        routed.await_fills(&mut ctl, warm.len() as u64);
        let before = router_cache(&mut ctl);
        let mut c = Client::connect(routed.addr()).expect("connect");
        for (i, s) in sample.iter().enumerate() {
            let t0 = Instant::now();
            black_box(c.roundtrip(&s.text).expect("router roundtrip"));
            tracer.record("rung.router", r.1, i as u64 + 1, t0, Instant::now());
        }
        let after = router_cache(&mut ctl);
        let (h, m) = (after.0 - before.0, after.1 - before.1);
        out.set("cluster.home_hit_rate", ratio(h, h + m));
        out.set("cluster.fills", router_counter(&mut ctl, "knn_router_fills_total") as f64);
        report.info("cluster.home_hit_rate.base", h + m);
    }
    routed.stop();
    close(r);

    // Derivations from the spans.
    let per_req = |name: &str, len: usize| -> f64 {
        median(
            &tracer
                .durations(name)
                .iter()
                .map(|&(_, us)| us / len.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let exec_us = tracer.median_us("rung.exec");
    let engine_us = tracer.median_us("rung.engine");
    let server_us = tracer.median_us("rung.server");
    let router_us = tracer.median_us("rung.router");
    let batch1 = per_req("rung.batch1", sample.len());
    let batch_n = per_req("rung.batchN", sample.len());
    out.set("rung.exec_us", exec_us);
    out.set("rung.engine_us", engine_us);
    out.set("rung.batch1_us", batch1);
    out.set("rung.batchN_us", batch_n);
    out.set("rung.server_us", server_us);
    out.set("rung.router_us", router_us);
    out.set("server.self_us", server_us - engine_us);
    out.set("cluster.self_us", router_us - server_us);
    out.set("telemetry.self_us", tracer.median_us("rung.engine_tel") - engine_us);
    out.set("engine.batch_scaling", batch1 / batch_n);
    // The engine's self time: its span minus the exec child it covers —
    // all of it on a cache hit, where exec never runs.
    let exec = tracer.durations("rung.exec");
    let eng = tracer.durations("rung.engine");
    let self_us: Vec<f64> = eng
        .iter()
        .zip(&exec)
        .enumerate()
        .map(|(i, (&(_, e), &(_, x)))| if hits[i] { e } else { e - x })
        .collect();
    out.set("engine.self_us", median(&self_us));
    // Each tag's sample count goes to provenance: a tag with 0 samples is
    // a route this workload's sample never took, reported as 0.
    let mut counts = Vec::with_capacity(TAGS.len());
    for tag in TAGS {
        let v: Vec<f64> = exec
            .iter()
            .zip(&tags)
            .filter(|(_, t)| t.as_str() == *tag)
            .map(|(&(_, us), _)| us)
            .collect();
        counts.push(format!("{tag}={}", v.len()));
        if !v.is_empty() {
            out.set(&format!("engine.exec.{tag}.p50_us"), median(&v));
        }
    }
    report.info("engine.exec.samples", counts.join(","));
}

/// Mean solver time per computed query, per route (telemetry-enabled
/// engine: the only configuration that reads the solve clock).
fn per_route_solve(work: &[RouteWorkSnapshot], out: &mut Layers) {
    let mut by: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for w in work {
        let e = by.entry(w.route.as_str()).or_default();
        e.0 += w.solve_us;
        e.1 += w.computes;
    }
    for (route, (us, n)) in by {
        if n > 0 {
            out.set(&format!("engine.exec.{route}.solve_us"), us as f64 / n as f64);
        }
    }
}

/// Solver-layer work per computed query over the ladder engine's lifetime
/// (warm lines plus sample): exact counts, identical for a given seed.
fn solver_counts(work: &[RouteWorkSnapshot], out: &mut Layers) {
    let computes: u64 = work.iter().map(|w| w.computes).sum::<u64>().max(1);
    let per =
        |f: fn(&RouteWorkSnapshot) -> u64| work.iter().map(f).sum::<u64>() as f64 / computes as f64;
    out.set("lp.solves", per(|w| w.lp_solves));
    out.set("qp.solves", per(|w| w.qp_solves));
    out.set("index.kd_visits", per(|w| w.kd_visits));
    out.set("core.region_yields", per(|w| w.region_yields));
}

pub fn ratio(num: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        num as f64 / base as f64
    }
}

/// Server-side counters of one `knn-server`, read over the wire with the
/// `stats` and `metrics` verbs and summed over its tenants.
#[derive(Clone, Copy, Default)]
pub struct ServerSide {
    pub requests: u64,
    pub errors: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub admission_sum_us: u64,
    pub admission_count: u64,
}

impl ServerSide {
    pub fn scrape(addr: std::net::SocketAddr) -> ServerSide {
        let mut c = Client::connect(addr).expect("connect for stats");
        let s = c.roundtrip(r#"{"id":"s","verb":"stats"}"#).expect("stats verb");
        let v = knn_engine::json::parse(&s).expect("stats is JSON");
        let mut out = ServerSide::default();
        for t in v.get("tenants").and_then(Value::as_array).unwrap_or(&[]) {
            let u = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
            let cache = t.get("cache");
            out.requests += u(t.get("requests"));
            out.errors += u(t.get("errors"));
            out.hits += u(cache.and_then(|c| c.get("hits")));
            out.misses += u(cache.and_then(|c| c.get("misses")));
            out.coalesced += u(cache.and_then(|c| c.get("coalesced")));
        }
        let m = c.roundtrip(r#"{"id":"m","verb":"metrics"}"#).expect("metrics verb");
        let v = knn_engine::json::parse(&m).expect("metrics is JSON");
        let text = v.get("metrics").and_then(Value::as_str).unwrap_or("");
        for line in text.lines().filter(|l| l.contains("phase=\"admission\"")) {
            let value = line.rsplit(' ').next().and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
            if line.starts_with("knn_phase_duration_us_sum") {
                out.admission_sum_us += value;
            } else if line.starts_with("knn_phase_duration_us_count") {
                out.admission_count += value;
            }
        }
        out
    }

    /// Records the window from `before` to `self` as server/engine layers.
    pub fn report_since(&self, before: &ServerSide, out: &mut Layers, info: &mut Report) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let (hits, misses) = (d(self.hits, before.hits), d(self.misses, before.misses));
        out.set("server.requests", d(self.requests, before.requests) as f64);
        out.set("server.errors", d(self.errors, before.errors) as f64);
        let n = d(self.admission_count, before.admission_count);
        out.set(
            "server.admission_wait_us",
            ratio(d(self.admission_sum_us, before.admission_sum_us), n),
        );
        out.set("engine.hit_rate", ratio(hits, hits + misses));
        out.set("engine.coalesced", d(self.coalesced, before.coalesced) as f64);
        info.info("engine.hit_rate.base", hits + misses);
        info.info("server.admission_wait_us.base", n);
    }
}

/// Resident-structure estimates of the serving engines.
pub fn memory(stats: &[EngineStats], out: &mut Layers) {
    let mb =
        |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64 / (1024.0 * 1024.0);
    out.set("mem.dataset_mb", mb(|s| s.resources.dataset_bytes));
    out.set("mem.artifact_mb", mb(|s| s.resources.artifact_bytes));
    out.set("mem.memo_mb", mb(|s| s.resources.memo_bytes));
    out.set("mem.cache_mb", mb(|s| s.resources.cache_bytes));
    out.set("mem.log_mb", mb(|s| s.resources.log_bytes));
}

/// In-process `apply` on one tenant's engine: write cost, the read stall
/// a write causes (first read after it minus the next one), guard
/// revalidation of cached classify answers, and artifact carry-over.
pub fn mutation_probe(
    text: &str,
    cfg: &EngineConfig,
    hot: &[String],
    rng: &mut Rng,
    writes: usize,
    tracer: &Tracer,
    out: &mut Layers,
) {
    let probe = tracer.reserve();
    let started = Instant::now();
    let engine =
        ExplanationEngine::new(textfmt::parse_dataset(text).expect("dataset parses"), cfg.clone());
    let hot: Vec<Request> =
        hot.iter().map(|l| Request::from_json_line(l, "0").expect("hot line parses")).collect();
    for h in &hot {
        black_box(engine.run(h));
    }
    let dim = engine.data().continuous.dim();
    let fresh = |rng: &mut Rng, i: usize| {
        let p: Vec<String> =
            (0..dim).map(|_| format!("{}", (rng.unit() * 1000.0).floor() / 1000.0)).collect();
        let line = format!(
            r#"{{"id":"probe{i}","cmd":"classify","metric":"l2","k":1,"point":[{}]}}"#,
            p.join(",")
        );
        Request::from_json_line(&line, "0").expect("probe line parses")
    };
    let s0 = engine.stats();
    let mut points = engine.data().continuous.len();
    let (mut stall_ms, mut reads) = (Vec::new(), 0usize);
    for w in 0..writes {
        let m = if w % 2 == 0 {
            let point = (0..dim).map(|_| (rng.unit() * 1000.0).floor() / 1000.0).collect();
            let label = if rng.unit() < 0.5 { Label::Positive } else { Label::Negative };
            points += 1;
            Mutation::Insert { point, label }
        } else {
            let id = rng.below(points);
            points -= 1;
            Mutation::Remove { id }
        };
        let t0 = Instant::now();
        engine.apply(m).expect("probe mutation applies");
        tracer.record("probe.apply", probe, w as u64 + 1, t0, Instant::now());
        let mut timed = |rng: &mut Rng| {
            reads += 1;
            let req = fresh(rng, reads);
            let t0 = Instant::now();
            black_box(engine.run(&req));
            t0.elapsed().as_secs_f64() * 1e3
        };
        let first = timed(rng);
        let steady = timed(rng);
        stall_ms.push(first - steady);
        for h in &hot {
            black_box(engine.run(h));
        }
    }
    tracer.close(probe, "probe", 0, started, Instant::now());
    let s1 = engine.stats();
    let reval = s1.revalidated - s0.revalidated;
    let failed = s1.revalidation_failed - s0.revalidation_failed;
    let carried = s1.artifacts_carried - s0.artifacts_carried;
    let built = s1.artifacts_built_total - s0.artifacts_built_total;
    out.set("delta.apply_us", tracer.median_us("probe.apply"));
    out.set("delta.read_stall_ms", median(&stall_ms));
    out.set("delta.revalidated_rate", ratio(reval, reval + failed));
    out.set(
        "artifacts.rebuild_ms_per_write",
        (s1.artifact_build_us - s0.artifact_build_us) as f64 / 1e3 / writes.max(1) as f64,
    );
    out.set("artifacts.carried_rate", ratio(carried, carried + built));
}
