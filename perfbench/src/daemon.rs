//! The `daemon-mixed` client: drives a spawned `fluxd` through the
//! repository's `DaemonClient` in a closed loop with a fixed number of verify
//! requests in flight.
//!
//! The request stream is a sequence of rounds.  Each round sends the 16
//! Table 1 cells by name (warm re-verification: reads on the validity
//! cache), then a few generated programs inline from a seed no earlier round
//! used (inserts and evictions), then a `status` request.

use crate::json::Obj;
use crate::pass::{daemon_round_programs, expected_verdict, peak_rss_mb, table1_requests, PROBE};
use flux::Mode;
use flux_bench::daemon_client::DaemonClient;
use flux_bench::json::{quote, Value};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// The pid of this process's child named `name`, from `/proc/<pid>/stat`
/// (`pid (comm) state ppid ...`).
fn child_pid(name: &str) -> Option<String> {
    let me = std::process::id().to_string();
    std::fs::read_dir("/proc")
        .ok()?
        .flatten()
        .find_map(|entry| {
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            let (head, tail) = stat.rsplit_once(") ")?;
            let ppid = tail.split_whitespace().nth(1)?;
            (head.split_once(" (")?.1 == name && ppid == me)
                .then(|| entry.file_name().to_string_lossy().into_owned())
        })
}

/// Peak resident set of the (single) `fluxd` child in MiB.
fn fluxd_rss_mb() -> f64 {
    child_pid("fluxd").map_or(0.0, |pid| peak_rss_mb(&pid))
}

/// One set-up probe: spawns a daemon and times it until its first verdict,
/// on [`PROBE`]; the daemon is then drained.  Milliseconds.
fn probe(path: &Path) -> std::io::Result<f64> {
    let t = Instant::now();
    let mut d = DaemonClient::spawn_at(path, &[])?;
    let answer = d.verify_source(PROBE, "flux")?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    d.shutdown()?;
    if answer.get("result").and_then(Value::as_str) != Some("verified") {
        return Err(std::io::Error::other("the set-up probe did not verify"));
    }
    Ok(ms)
}

/// One item of the request stream.
#[derive(Clone, Debug)]
struct Item {
    round: u64,
    kind: &'static str,
    name: String,
    mode: Mode,
    /// Inline source; `None` sends the benchmark by name.
    source: Option<String>,
    expect_safe: bool,
    /// Sent only once every earlier verify request has been answered.
    barrier: bool,
}

/// The two Flux cells on Table 1's critical path.  Each round opens with
/// them alone, behind a barrier on both sides: they always share the
/// machine with each other, and no short request lands in their tail, so a
/// round's timings do not hinge on how requests happened to pair up.
const CRITICAL_CELLS: [&str; 2] = ["heapsort", "kmp"];

fn round_items(seed: u64, round: u64) -> VecDeque<Item> {
    let mut cells = table1_requests();
    cells.sort_by_key(|r| !(r.mode == Mode::Flux && CRITICAL_CELLS.contains(&r.name.as_str())));
    let mut items: VecDeque<Item> = cells
        .into_iter()
        .enumerate()
        .map(|(i, r)| Item {
            round,
            kind: "table",
            name: r.name,
            mode: r.mode,
            source: None,
            expect_safe: r.expect_safe,
            barrier: i == 0 || i == CRITICAL_CELLS.len(),
        })
        .collect();
    for p in daemon_round_programs(seed, round) {
        items.push_back(Item {
            round,
            kind: "gen",
            name: format!("gen-{}", p.seed),
            mode: Mode::Flux,
            expect_safe: p.expect_safe(),
            source: Some(p.flux_src),
            barrier: false,
        });
    }
    items.push_back(Item {
        round,
        kind: "status",
        name: String::new(),
        mode: Mode::Flux,
        source: None,
        expect_safe: true,
        barrier: false,
    });
    items
}

fn payload(id: u64, item: &Item) -> String {
    if item.kind == "status" {
        return format!("{{\"id\":{id},\"method\":\"status\"}}");
    }
    let mode = match item.mode {
        Mode::Flux => "flux",
        Mode::Baseline => "baseline",
    };
    let target = match &item.source {
        Some(src) => format!("\"source\":{}", quote(src)),
        None => format!("\"program\":{}", quote(&item.name)),
    };
    format!("{{\"id\":{id},\"method\":\"verify\",{target},\"mode\":\"{mode}\"}}")
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Busy answers a request may receive before it counts as failed.
const MAX_BUSY_RETRIES: u32 = 50;

/// The daemon's peak resident set is read when this many rounds have
/// completed, so it measures a fixed amount of work whatever the run length.
const RSS_ROUNDS: usize = 3;

/// Runs the mixed workload against the daemon at `path` for `seconds`,
/// with as many verify requests in flight as this process may use CPUs,
/// and returns the JSON result line.  `setup_probes` set-up probes run
/// first, each on a daemon of its own.
///
/// `fluxd`'s answers carry the program's verdict only, so the oracle checks
/// verdicts per program here, not per function.
pub fn run(path: &Path, seed: u64, seconds: f64, setup_probes: usize) -> std::io::Result<String> {
    let in_flight = std::thread::available_parallelism().map_or(1, |n| n.get());
    let setup_ms = (0..setup_probes)
        .map(|_| probe(path))
        .collect::<std::io::Result<Vec<f64>>>()?;
    let mut d = DaemonClient::spawn_at(path, &[])?;
    let status0 = d.status()?;

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut queue: VecDeque<Item> = VecDeque::new();
    let mut round = 0u64;
    let mut pending_per_round: HashMap<u64, usize> = HashMap::new();
    let mut complete_rounds: Vec<u64> = Vec::new();
    let mut inflight: HashMap<u64, (Item, Instant, u32)> = HashMap::new();
    let mut verifies_in_flight = 0usize;
    let mut next_id = 1u64;
    let mut records: Vec<String> = Vec::new();
    let mut busy = 0u64;
    let mut issuing = true;
    let mut rss_mb = None;
    loop {
        while issuing && verifies_in_flight < in_flight {
            if queue.is_empty() {
                if Instant::now() >= deadline && complete_rounds.len() >= RSS_ROUNDS {
                    issuing = false;
                    break;
                }
                queue = round_items(seed, round);
                let verifies = queue.iter().filter(|i| i.kind != "status").count();
                pending_per_round.insert(round, verifies);
                round += 1;
            }
            if queue.front().is_some_and(|i| i.barrier) && verifies_in_flight > 0 {
                break;
            }
            let item = queue.pop_front().expect("queue refilled above");
            let id = next_id;
            next_id += 1;
            d.send(&payload(id, &item))?;
            if item.kind != "status" {
                verifies_in_flight += 1;
            }
            inflight.insert(id, (item, Instant::now(), 0));
        }
        if inflight.is_empty() {
            break;
        }
        let response = d.read_response()?;
        let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
        let Some((item, sent, retries)) = inflight.remove(&id) else {
            continue;
        };
        let result = response
            .get("result")
            .and_then(Value::as_str)
            .unwrap_or("error");
        if item.kind == "status" {
            continue;
        }
        if result == "busy" && retries < MAX_BUSY_RETRIES {
            busy += 1;
            std::thread::sleep(Duration::from_millis(
                num(&response, "retry_after_ms") as u64
            ));
            let id = next_id;
            next_id += 1;
            d.send(&payload(id, &item))?;
            inflight.insert(id, (item, sent, retries + 1));
            continue;
        }
        verifies_in_flight -= 1;
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let stats = response.get("stats");
        let stat = |key: &str| stats.map_or(0.0, |s| num(s, key));
        let functions = num(&response, "functions");
        let mut o = Obj::new();
        o.int("round", item.round)
            .str("kind", item.kind)
            .str("name", &item.name)
            .str(
                "mode",
                if item.mode == Mode::Flux {
                    "flux"
                } else {
                    "baseline"
                },
            )
            .num("ms", latency_ms)
            .num("server_ms", num(&response, "time_ms"))
            .str("verdict", result)
            .str("expect", expected_verdict(item.expect_safe))
            .num("functions", functions)
            .num("conclusive", functions - stat("unknowns").min(functions))
            .num("smt_queries", stat("smt_queries"))
            .num("cache_hits", stat("cache_hits"))
            .num("xbench_hits", stat("xbench_hits"))
            .int("busy_retries", retries as u64);
        records.push(o.finish());
        let pending = pending_per_round
            .get_mut(&item.round)
            .expect("round registered");
        *pending -= 1;
        if *pending == 0 {
            complete_rounds.push(item.round);
            if complete_rounds.len() == RSS_ROUNDS {
                rss_mb = Some(fluxd_rss_mb());
            }
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let final_status = d.status()?;
    let rss_mb = rss_mb.unwrap_or_else(fluxd_rss_mb);
    d.shutdown()?;

    let caches = |v: &Value, key: &str| v.get("caches").map_or(0.0, |c| num(c, key));
    let mut daemon = Obj::new();
    daemon
        .num("busy", busy as f64)
        .num(
            "validity_evictions",
            caches(&final_status, "validity_evictions"),
        )
        .num("cnf_evictions", caches(&final_status, "cnf_evictions"))
        .num(
            "hcons_memo_evictions",
            caches(&final_status, "hcons_memo_evictions"),
        )
        .num(
            "hcons_nodes_added",
            caches(&final_status, "hcons_nodes") - caches(&status0, "hcons_nodes"),
        );
    let rounds: Vec<String> = complete_rounds.iter().map(u64::to_string).collect();
    let setup: Vec<String> = setup_ms.iter().map(|m| format!("{m}")).collect();
    let mut out = Obj::new();
    out.raw("setup_ms", &format!("[{}]", setup.join(",")))
        .raw("complete_rounds", &format!("[{}]", rounds.join(",")))
        .num("wall_ms", wall_ms)
        .num("rss_mb", rss_mb)
        .raw("daemon", &daemon.finish())
        .raw("requests", &format!("[{}]", records.join(",")));
    Ok(out.finish())
}
