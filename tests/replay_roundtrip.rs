//! The forensics close-out, end to end over real processes: a tenant
//! replicated on two `xknn serve` backends takes an interleaved stream of
//! queries and mutations through the router; the router's `repro` verb then
//! exports ONE self-contained bundle — seed text, the full replay log, and
//! the captured request/response lines merged from both backends — and the
//! offline `xknn replay` subcommand, in a **fresh process with no access to
//! the cluster**, re-executes every captured request and byte-matches every
//! response. A corrupted response byte must flip the exit code: the replay
//! tool is only a debugger if it can actually tell "same bytes" from "not".

use explainable_knn::cluster::{LoadSource, Router, RouterConfig};
use explainable_knn::engine::bundle::ReproBundle;
use explainable_knn::engine::json::{parse_bytes, Value};
use explainable_knn::server::Client;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BOOL: &str = "+ 1 1 1 0 0\n+ 1 1 0 0 0\n+ 1 0 1 0 0\n- 0 0 0 1 1\n- 0 0 1 1 1\n- 0 1 0 1 1\n";

/// Spawns a bare `xknn serve` backend process on an ephemeral port.
fn spawn_backend() -> (Child, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xknn"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("xknn serve starts");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .parse()
        .unwrap();
    (child, addr)
}

/// Runs `xknn replay` on a bundle file, returning (exit code, stdout).
fn run_replay(path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xknn"))
        .args(["replay", path.to_str().unwrap()])
        .output()
        .expect("xknn replay runs");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn router_exported_bundle_replays_byte_identically_offline() {
    let (mut b0, addr0) = spawn_backend();
    let (mut b1, addr1) = spawn_backend();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig { probe_interval: Duration::from_millis(100), ..RouterConfig::default() },
    )
    .unwrap();
    router.attach(addr0);
    router.attach(addr1);
    router.load("hot", LoadSource::Text(BOOL), None).unwrap();
    let handle = router.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    // An interleaved stream: queries (some traced) with mutations mid-way,
    // so captured entries span three epochs of the tenant.
    let mut served: Vec<String> = Vec::new();
    for i in 0..60u32 {
        let line = match i {
            15 => r#"{"id":"m15","verb":"insert","name":"hot","label":"+","point":[0,1,1,0,0]}"#
                .to_string(),
            35 => r#"{"id":"m35","verb":"insert","name":"hot","label":"-","point":[1,0,0,1,1]}"#
                .to_string(),
            45 => r#"{"id":"m45","verb":"remove","name":"hot","index":2}"#.to_string(),
            _ => {
                let bits: Vec<String> = (0..5).map(|b| ((i >> b) & 1).to_string()).collect();
                let cmd = match i % 4 {
                    0 => "minimal-sr",
                    1 => "counterfactual",
                    _ => "classify",
                };
                let k = if i % 3 == 0 { 3 } else { 1 };
                let trace = if i % 7 == 0 { format!(r#","trace":"t-{i}""#) } else { String::new() };
                format!(
                    r#"{{"dataset":"hot","id":"q{i}","cmd":"{cmd}","metric":"hamming","k":{k},"point":[{}]{trace}}}"#,
                    bits.join(",")
                )
            }
        };
        let resp = client.roundtrip(&line).unwrap();
        assert!(resp.contains(r#""ok":true"#), "line {i}: {resp}");
        if line.contains(r#""dataset""#) {
            served.push(resp);
        }
    }

    // The router assembles one bundle for the whole tenant window: its own
    // retained seed + mutation log, both backends' captures tagged.
    let resp = client.roundtrip(r#"{"id":"r","verb":"repro","name":"hot"}"#).unwrap();
    let parsed = parse_bytes(resp.as_bytes()).unwrap();
    assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)), "{resp}");
    assert_eq!(parsed.get("repro"), Some(&Value::String("hot".into())), "{resp}");
    let Some(Value::String(text)) = parsed.get("bundle") else { panic!("no bundle: {resp}") };
    let bundle = ReproBundle::from_json(text).unwrap();
    assert_eq!(bundle.replay.len(), 3, "the three mutations ride the bundle");
    assert_eq!(bundle.entries.len(), served.len(), "every served query is captured");
    let backends: BTreeSet<u64> = bundle.entries.iter().filter_map(|e| e.backend).collect();
    assert_eq!(backends.len(), 2, "both backends contributed entries: {backends:?}");
    for s in &served {
        assert!(bundle.entries.iter().any(|e| &e.response == s), "missing capture for {s}");
    }

    // Offline replay in a fresh process: byte-identical, exit 0.
    let dir = std::env::temp_dir();
    let clean = dir.join(format!("xknn-replay-test-{}.json", std::process::id()));
    std::fs::write(&clean, text).unwrap();
    let (code, stdout) = run_replay(&clean);
    assert_eq!(code, Some(0), "clean replay must exit 0: {stdout}");
    assert!(stdout.contains("replay ok"), "{stdout}");

    // One corrupted response byte: non-zero exit, divergence named.
    let mut corrupt = bundle.clone();
    let entry = corrupt
        .entries
        .iter_mut()
        .find(|e| e.response.contains(r#""label":""#))
        .expect("a classify response to corrupt");
    let (from, to) = if entry.response.contains(r#""label":"+""#) {
        (r#""label":"+""#, r#""label":"-""#)
    } else {
        (r#""label":"-""#, r#""label":"+""#)
    };
    entry.response = entry.response.replace(from, to);
    let bad = dir.join(format!("xknn-replay-test-{}-corrupt.json", std::process::id()));
    std::fs::write(&bad, corrupt.to_json()).unwrap();
    let (code, stdout) = run_replay(&bad);
    assert_eq!(code, Some(1), "corrupted bundle must exit 1: {stdout}");
    assert!(stdout.contains("DIVERGED") && stdout.contains("replay FAILED"), "{stdout}");

    let _ = std::fs::remove_file(&clean);
    let _ = std::fs::remove_file(&bad);
    handle.shutdown();
    for child in [&mut b0, &mut b1] {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// A bundle captured while the ℓ2 region routes still had an eager/lazy
/// selector (it carries the selector's config member): ℓ2 check, minimal and
/// counterfactual queries at k ∈ {1, 3} across one insert. It must still
/// parse and replay byte-identically, exit 0.
#[test]
fn legacy_bundle_with_region_selector_replays() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/legacy_l2_regions_bundle.json");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(r#""eager_l2_regions":false"#), "fixture lost its legacy member");
    let bundle = ReproBundle::from_json(&text).unwrap();
    let routes: BTreeSet<&str> = ["l2-lp-regions", "l2-greedy-deletion", "l2-qp-regions"]
        .into_iter()
        .filter(|r| bundle.entries.iter().any(|e| e.response.contains(&format!("\"{r}\""))))
        .collect();
    assert_eq!(routes.len(), 3, "fixture covers every ℓ2 region route: {routes:?}");
    let (code, stdout) = run_replay(&path);
    assert_eq!(code, Some(0), "legacy bundle must replay cleanly: {stdout}");
    assert!(stdout.contains("replay ok"), "{stdout}");
}
