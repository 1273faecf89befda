//! Closed-loop benchmark of the explanation stack: two workloads over
//! loopback `knn-server` stacks, byte-checked against in-process oracles,
//! plus a traced run that times each layer (up to a `knn-cluster` router)
//! from outside. See `README.md` next to this crate for the design.
//!
//! ```text
//! knn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Earlier lines carry provenance and sample counts.

mod gen;
mod harness;
mod ladder;
mod workloads;

use knn_engine::EngineConfig;
use knn_server::ServerConfig;
use std::fmt::Write as _;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    /// Every checked response matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and sample counts, printed before the result line.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::NAMES));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Opts { workload, seed, seconds, trace })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("knn-perfbench: {e}");
            eprintln!(
                "usage: knn-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = workloads::run(&opts);
    // A non-finite value is a broken measurement (JSON cannot carry it):
    // the run is not correct, and the value prints as 0.
    for m in report.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        eprintln!("knn-perfbench: metric {} is not finite ({})", m.name, m.value);
        report.correct = false;
        m.value = 0.0;
    }

    // Both stacks run with the default worker settings; 0 means one per CPU.
    let auto = |n: usize| (if n == 0 { harness::nproc() } else { n }).to_string();
    let mut prov = vec![
        ("workload".to_string(), opts.workload.clone()),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), opts.seconds.to_string()),
        ("trace".to_string(), (opts.trace as u8).to_string()),
        ("nproc".to_string(), harness::nproc().to_string()),
        ("server_worker_budget".to_string(), auto(ServerConfig::default().worker_budget)),
        ("engine_workers".to_string(), auto(EngineConfig::default().workers)),
        ("commit".to_string(), workloads::source_id()),
    ];
    prov.append(&mut report.info);
    let fields: Vec<String> =
        prov.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!("provenance {{{}}}", fields.join(","));

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(&m.name), m.value, json_str(m.unit))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
