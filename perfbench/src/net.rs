//! `net_mixed`: a loopback `NetServer` plus `AdminServer` in front of a
//! `TcamNode` holding a seeded `router_lpm` table of 1024 routes (one
//! namespace, one shard, one worker — the node defaults), driven by two
//! generator threads at once:
//!
//! * lookups — one connection in a closed loop, pipelining 4 requests of
//!   512 keys (wire clients wait on a bounded window);
//! * updates — 1-rule `POST /rules` batches on a seeded Poisson schedule
//!   averaging 10 ms (open loop), each timed from its due time to the
//!   HTTP 200, with the generator's own lateness reported.
//!
//! Every reply is checked against the routing-table oracle. The churn
//! only inserts and removes rules at priorities below every route (the
//! default route included), so the oracle's answer is the right one at
//! any epoch.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_net::admin::AdminServer;
use tcam_net::client::NetClient;
use tcam_net::node::{NodeConfig, TcamNode};
use tcam_net::server::{NetServer, ServerConfig};
use tcam_net::wire::Status;
use tcam_numeric::rng::SplitMix64;
use tcam_obs::TraceRecord;
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::telemetry::ServeReport;
use tcam_serve::workload::Workload;
use tcam_update::store::RuleChange;

use crate::report::{median, peak_rss_mb, percentile_sorted, secs, Outcome, SETUPS};

const ROUTES: usize = 1024;
const KEY_POOL: usize = 4096;
const BATCH: usize = 512;
const INFLIGHT: usize = 4;
/// The fixed job `wall_s` times: answering this many lookup keys (1024
/// requests) with the churn running beside.
const BLOCK_KEYS: u64 = 1 << 19;
/// Mean gap of the Poisson update schedule, seconds.
const UPDATE_MEAN_GAP_S: f64 = 0.010;
/// Churn priorities start here: below every route of the table (routes
/// take 0..ROUTES, the default route ROUTES).
const CHURN_BASE: u32 = 2 * ROUTES as u32;
/// Churn rules live at once; beyond this the oldest is removed.
const CHURN_LIVE: usize = 32;
/// Traced run: every n-th lookup request carries a sampled trace.
const TRACE_EVERY: u32 = 16;
/// Traced run: every n-th update goes to `TcamNode::apply` directly.
const DIRECT_APPLY_EVERY: u64 = 4;
/// Traced run: tracing is switched off and on in windows this long, to
/// price the tracing against the same traffic.
const OVERHEAD_WINDOW: Duration = Duration::from_millis(500);

/// The node, its two listeners and where its files live.
struct Stack {
    dir: PathBuf,
    node: Arc<TcamNode>,
    server: NetServer,
    admin: AdminServer,
}

impl Stack {
    /// Stops both listeners and the node; returns the serving report and
    /// the WAL size at shutdown.
    fn shutdown(self) -> (Option<ServeReport>, u64) {
        self.admin.shutdown();
        self.server.shutdown();
        let wal_bytes = self.node.wal_bytes();
        let report = self.node.shutdown().into_iter().find_map(|(_, r)| r);
        let _ = std::fs::remove_dir_all(&self.dir);
        (report, wal_bytes)
    }
}

/// The generated inputs: table, key pool and the oracle's answer per key.
struct Inputs {
    workload: Workload,
    keys: Vec<PackedWord>,
    expected: Vec<Option<u32>>,
}

fn inputs(seed: u64) -> Inputs {
    let workload = Workload::router_lpm(ROUTES, KEY_POOL, seed);
    let oracle = ShardedRuleSet::build(&workload.words, 0).expect("oracle rule set builds");
    let expected = workload
        .keys
        .iter()
        .map(|k| oracle.search(k).expect("oracle search"))
        .collect();
    let keys = workload.keys.iter().map(|k| PackedWord::pack(k)).collect();
    Inputs {
        workload,
        keys,
        expected,
    }
}

fn start_stack(dir: PathBuf, words: &[Vec<TernaryBit>]) -> Stack {
    let _ = std::fs::remove_dir_all(&dir);
    let node = Arc::new(TcamNode::open(&dir, NodeConfig::default()).expect("node opens"));
    let batch: Vec<RuleChange> = words
        .iter()
        .enumerate()
        .map(|(i, word)| RuleChange::Insert {
            priority: u32::try_from(i).expect("rule id fits u32"),
            word: word.clone(),
        })
        .collect();
    node.apply(0, words[0].len(), &batch).expect("routes apply");
    let server = NetServer::start(
        Arc::clone(&node),
        "127.0.0.1:0",
        ServerConfig {
            inflight_per_connection: INFLIGHT,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let admin = AdminServer::start(Arc::clone(&node), "127.0.0.1:0").expect("admin starts");
    Stack {
        dir,
        node,
        server,
        admin,
    }
}

/// What the lookup generator saw.
#[derive(Default)]
struct LookupStats {
    requests: u64,
    ok_keys: u64,
    overloaded: u64,
    errors: u64,
    wrong: u64,
    /// Latency of every answered request.
    latencies_ms: Vec<f64>,
    /// Seconds of every complete block of `BLOCK_KEYS` correctly
    /// answered keys, back to back from the first request.
    block_s: Vec<f64>,
    elapsed_s: f64,
}

/// The closed-loop lookup connection: keeps `INFLIGHT` requests of
/// `BATCH` keys outstanding until `stop`, then drains.
fn drive_lookups(
    addr: &str,
    inputs: &Inputs,
    stop: &AtomicBool,
    tracing: Option<&AtomicBool>,
    ok_keys: &AtomicU64,
) -> LookupStats {
    let mut stats = LookupStats::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            stats.requests = 1;
            stats.errors = 1;
            return stats;
        }
    };
    let n = inputs.keys.len();
    let mut outstanding: VecDeque<(u32, Instant, usize)> = VecDeque::new();
    let mut cursor = 0usize;
    let mut traced = false;
    let t0 = Instant::now();
    let (mut block_start, mut block_keys) = (t0, 0u64);
    loop {
        let sending = !stop.load(Ordering::Relaxed);
        if !sending && outstanding.is_empty() {
            break;
        }
        if let Some(flag) = tracing {
            let want = flag.load(Ordering::Relaxed);
            if want != traced {
                client.set_tracing(if want { TRACE_EVERY } else { 0 });
                traced = want;
            }
        }
        while sending && outstanding.len() < INFLIGHT {
            let chunk: Vec<PackedWord> =
                (0..BATCH).map(|i| inputs.keys[(cursor + i) % n]).collect();
            stats.requests += 1;
            match client.send_lookup(0, &chunk) {
                Ok(id) => outstanding.push_back((id, Instant::now(), cursor)),
                Err(_) => {
                    stats.errors += 1;
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            cursor = (cursor + BATCH) % n;
        }
        let Some((id, sent, first)) = outstanding.pop_front() else {
            continue;
        };
        let resp = match client.recv_response() {
            Ok(r) => r,
            Err(_) => {
                stats.errors += 1 + outstanding.len() as u64;
                break;
            }
        };
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        match resp.status {
            Status::Ok if resp.request_id == id && resp.results.len() == BATCH => {
                let wrong = resp
                    .results
                    .iter()
                    .enumerate()
                    .any(|(i, got)| *got != inputs.expected[(first + i) % n]);
                if wrong {
                    stats.wrong += 1;
                } else {
                    stats.ok_keys += BATCH as u64;
                    ok_keys.fetch_add(BATCH as u64, Ordering::Relaxed);
                    stats.latencies_ms.push(latency_ms);
                    block_keys += BATCH as u64;
                    if block_keys >= BLOCK_KEYS {
                        let now = Instant::now();
                        stats.block_s.push((now - block_start).as_secs_f64());
                        (block_start, block_keys) = (now, block_keys - BLOCK_KEYS);
                    }
                }
            }
            Status::Overloaded => stats.overloaded += 1,
            _ => stats.errors += 1,
        }
    }
    stats.elapsed_s = secs(t0);
    stats
}

/// What the update generator saw.
#[derive(Default)]
struct UpdateStats {
    sent: u64,
    failed: u64,
    /// Due time → HTTP 200, admin-plane updates only.
    latencies_ms: Vec<f64>,
    /// `TcamNode::apply` wall time, direct updates only (traced run).
    apply_ms: Vec<f64>,
    /// Send start − due time, every update.
    lateness_ms: Vec<f64>,
}

fn word_text(word: &[TernaryBit]) -> String {
    word.iter()
        .map(|b| match b {
            TernaryBit::Zero => '0',
            TernaryBit::One => '1',
            TernaryBit::X => 'X',
        })
        .collect()
}

/// One `POST /rules` exchange; returns the HTTP status code.
fn post_rules(addr: &str, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .ok()?;
    let request = format!(
        "POST /rules?ns=0 HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok()?;
    let text = String::from_utf8_lossy(&response);
    text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

/// The open-loop update generator: 1-rule batches due on a seeded Poisson
/// schedule until `until`. The churn inserts random rules at priorities
/// below every route and removes the oldest once `CHURN_LIVE` are live.
fn drive_updates(
    admin: &str,
    node: &TcamNode,
    seed: u64,
    start: Instant,
    until: Duration,
    direct: bool,
) -> UpdateStats {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0fc4_u64);
    let mut stats = UpdateStats::default();
    let mut live: VecDeque<u32> = VecDeque::new();
    let mut next_priority = CHURN_BASE;
    let mut due = Duration::ZERO;
    loop {
        due += Duration::from_secs_f64(rng.exp(1.0 / UPDATE_MEAN_GAP_S));
        if due >= until {
            break;
        }
        let change = if live.len() < CHURN_LIVE {
            let word: Vec<TernaryBit> = (0..32)
                .map(|_| match rng.below(3) {
                    0 => TernaryBit::Zero,
                    1 => TernaryBit::One,
                    _ => TernaryBit::X,
                })
                .collect();
            live.push_back(next_priority);
            next_priority += 1;
            RuleChange::Insert {
                priority: next_priority - 1,
                word,
            }
        } else {
            RuleChange::Remove {
                priority: live.pop_front().expect("live churn rule"),
            }
        };
        let due_at = start + due;
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent_at = Instant::now();
        stats
            .lateness_ms
            .push(sent_at.saturating_duration_since(due_at).as_secs_f64() * 1e3);
        stats.sent += 1;
        if direct && stats.sent % DIRECT_APPLY_EVERY == 0 {
            let ok = node.apply(0, 32, &[change]).is_ok();
            stats.apply_ms.push(secs(sent_at) * 1e3);
            stats.failed += u64::from(!ok);
            continue;
        }
        let body = match &change {
            RuleChange::Insert { priority, word } => format!(
                "{{\"width\": 32, \"changes\": [{{\"op\": \"insert\", \"priority\": {priority}, \"word\": \"{}\"}}]}}",
                word_text(word)
            ),
            RuleChange::Remove { priority } => format!(
                "{{\"width\": 32, \"changes\": [{{\"op\": \"remove\", \"priority\": {priority}}}]}}"
            ),
            RuleChange::Modify { .. } => unreachable!("the churn never modifies"),
        };
        if post_rules(admin, &body) == Some(200) {
            stats
                .latencies_ms
                .push(due_at.elapsed().as_secs_f64() * 1e3);
        } else {
            stats.failed += 1;
        }
    }
    stats
}

/// Self time of each hop of a span tree: every instant of the request is
/// charged to the covering hop that ends first — the innermost one when
/// hops nest, and the earlier stage when two stages overlap (a shard's
/// `serve_queue` hop opens inside `net_admission` and closes inside
/// `net_gather`; the wait is the queue's, not the gather's).
fn hop_self_ns(record: &TraceRecord) -> Vec<(&'static str, u64)> {
    let hops = &record.hops;
    let mut cuts: Vec<u64> = hops.iter().flat_map(|h| [h.start_ns, h.end_ns]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut self_ns = vec![0u64; hops.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner = hops
            .iter()
            .enumerate()
            .filter(|(_, h)| h.start_ns <= a && h.end_ns >= b)
            .min_by_key(|(i, h)| (h.end_ns, std::cmp::Reverse(*i)))
            .map(|(i, _)| i);
        if let Some(i) = owner {
            self_ns[i] += b - a;
        }
    }
    hops.iter().map(|h| h.name).zip(self_ns).collect()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn state_dir(setup: usize) -> PathBuf {
    Path::new(".perfbench_run").join(format!("net-{}-{setup}", std::process::id()))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Set up several times (the median is `setup_s`); each set-up replaces
    // and shuts down the previous stack, and only the last one serves.
    // Unlike the circuit set-ups these are not pinned to rotating CPUs:
    // the node's threads start here and would inherit the pin.
    let mut times = Vec::new();
    let mut live: Option<(Inputs, Stack)> = None;
    for i in 0..SETUPS {
        if let Some((_, old)) = live.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let inputs = inputs(seed);
        let stack = start_stack(state_dir(i), &inputs.workload.words);
        // Prove the path end to end before anything is timed.
        let mut client =
            NetClient::connect(&stack.server.local_addr().to_string()).expect("client connects");
        client.ping().expect("server answers");
        times.push(secs(t));
        live = Some((inputs, stack));
    }
    let setup_s = median(&times);
    let (inputs, stack) = live.expect("set up");
    tcam_obs::trace_store_reset();

    let addr = stack.server.local_addr().to_string();
    let admin = stack.admin.local_addr().to_string();
    let window = Duration::from_secs_f64(seconds);
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let ok_keys = AtomicU64::new(0);
    let mut traces: HashMap<u64, Arc<TraceRecord>> = HashMap::new();
    // (tracing on, lookups per second) per overhead window.
    let mut overhead_windows: Vec<(bool, f64)> = Vec::new();

    let start = Instant::now();
    let (lookups, updates) = std::thread::scope(|scope| {
        let lookups = scope
            .spawn(|| drive_lookups(&addr, &inputs, &stop, trace.then_some(&tracing), &ok_keys));
        let updates =
            scope.spawn(|| drive_updates(&admin, &stack.node, seed, start, window, trace));
        if trace {
            let mut on = false;
            while start.elapsed() < window {
                let (keys0, t0) = (ok_keys.load(Ordering::Relaxed), Instant::now());
                std::thread::sleep(OVERHEAD_WINDOW.min(window.saturating_sub(start.elapsed())));
                let lps = (ok_keys.load(Ordering::Relaxed) - keys0) as f64 / secs(t0);
                overhead_windows.push((on, lps));
                for r in tcam_obs::trace_recent(256) {
                    traces.entry(r.trace_id).or_insert(r);
                }
                on = !on;
                tracing.store(on, Ordering::Relaxed);
            }
        } else {
            std::thread::sleep(window);
        }
        stop.store(true, Ordering::Relaxed);
        (
            lookups.join().expect("lookup generator"),
            updates.join().expect("update generator"),
        )
    });
    let (report, wal_bytes) = stack.shutdown();
    let _ = std::fs::remove_dir(".perfbench_run");

    let lookup_failed = lookups.overloaded + lookups.errors + lookups.wrong;
    let mut out = Outcome {
        correct: lookups.wrong == 0 && lookups.errors == 0,
        attempted: lookups.requests + updates.sent,
        failed: lookup_failed + updates.failed,
        ..Outcome::default()
    };
    if lookups.wrong > 0 {
        out.problem(format!(
            "{} lookup replies disagree with the oracle",
            lookups.wrong
        ));
    }
    if lookups.errors > 0 {
        out.problem(format!("{} lookup requests failed", lookups.errors));
    }
    if updates.failed > 0 {
        out.problem(format!("{} updates were not acknowledged", updates.failed));
    }
    if lookups.block_s.is_empty() || (updates.latencies_ms.is_empty() && !trace) {
        out.problem("no block of lookups or no update completed");
    }

    let lookup_ms = sorted(lookups.latencies_ms);
    let update_ms = sorted(updates.latencies_ms);
    out.percentile(
        "wall_s",
        median(&lookups.block_s),
        "s",
        lookups.block_s.len(),
    );
    out.job_walls = lookups.block_s;
    out.metric(
        "lookups_per_s",
        lookups.ok_keys as f64 / lookups.elapsed_s.max(1e-9),
        "1/s",
    );
    out.percentile(
        "lookup_p50_ms",
        percentile_sorted(&lookup_ms, 50.0),
        "ms",
        lookup_ms.len(),
    );
    out.percentile(
        "lookup_p99_ms",
        percentile_sorted(&lookup_ms, 99.0),
        "ms",
        lookup_ms.len(),
    );
    out.percentile(
        "update_p50_ms",
        percentile_sorted(&update_ms, 50.0),
        "ms",
        update_ms.len(),
    );
    out.percentile(
        "update_p99_ms",
        percentile_sorted(&update_ms, 99.0),
        "ms",
        update_ms.len(),
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );

    if trace {
        let records: Vec<_> = traces.into_values().filter(|r| r.status == "ok").collect();
        let mut self_ms: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for r in &records {
            for (name, ns) in hop_self_ns(r) {
                self_ms.entry(name).or_default().push(ns as f64 * 1e-6);
            }
        }
        for (hop, metric) in [
            ("net_decode", "net.decode_ms"),
            ("net_admission", "net.admission_ms"),
            ("serve_queue", "serve.queue_ms"),
            ("serve_match", "serve.match_ms"),
            ("net_gather", "net.gather_ms"),
            ("net_write", "net.write_ms"),
        ] {
            let v = self_ms.remove(hop).unwrap_or_default();
            out.percentile(metric, median(&v), "ms", v.len());
        }
        let covers: Vec<f64> = records.iter().map(|r| r.cover_pct()).collect();
        out.percentile("trace.cover_pct", median(&covers), "%", covers.len());
        out.metric("trace.wall_s", lookups.elapsed_s, "s");
        let lps = |on: bool| {
            median(
                &overhead_windows
                    .iter()
                    .filter(|w| w.0 == on)
                    .map(|w| w.1)
                    .collect::<Vec<_>>(),
            )
        };
        out.metric(
            "obs.trace_overhead_pct",
            (lps(false) / lps(true) - 1.0) * 100.0,
            "%",
        );

        if let Some(r) = &report {
            let busy: f64 = r.shards.iter().map(|s| s.busy.as_secs_f64()).sum();
            let (searches, batches) = (
                r.searches(),
                r.shards.iter().map(|s| s.batches).sum::<u64>(),
            );
            out.metric(
                "serve.busy_frac",
                busy / r.wall.as_secs_f64().max(1e-9),
                "ratio",
            );
            out.metric(
                "serve.keys_per_batch",
                searches as f64 / batches.max(1) as f64,
                "count",
            );
            out.percentile(
                "serve.queue_wait_p99_ms",
                r.queue_wait.quantile(99.0) as f64 * 1e-6,
                "ms",
                r.queue_wait.count() as usize,
            );
            let stall: f64 = r.shards.iter().map(|s| s.swap_stall.as_secs_f64()).sum();
            out.metric("serve.swap_stall_ms", stall * 1e3, "ms");
            out.percentile(
                "serve.publish_p50_ms",
                r.update_latency.quantile(50.0) as f64 * 1e-6,
                "ms",
                r.update_latency.count() as usize,
            );
        } else {
            out.problem("the node returned no serving report");
        }
        let apply_ms = median(&updates.apply_ms);
        out.percentile("net.apply_ms", apply_ms, "ms", updates.apply_ms.len());
        out.metric(
            "net.admin_overhead_ms",
            percentile_sorted(&update_ms, 50.0) - apply_ms,
            "ms",
        );
        out.metric("net.wal_bytes", wal_bytes as f64, "bytes");
        out.metric("net.shed_requests", lookups.overloaded as f64, "count");
        let lateness = sorted(updates.lateness_ms);
        out.percentile(
            "gen.lateness_p99_ms",
            percentile_sorted(&lateness, 99.0),
            "ms",
            lateness.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_obs::Hop;

    #[test]
    fn hop_self_time_charges_the_hop_that_ends_first() {
        let hop = |name, start_ns, end_ns| Hop {
            name,
            label: None,
            start_ns,
            end_ns,
        };
        let record = TraceRecord {
            trace_id: 1,
            parent_span: 0,
            status: "ok",
            total_ns: 100,
            hops: vec![
                hop("outer", 0, 100),
                hop("a", 10, 40),
                hop("b", 30, 60),
                hop("c", 45, 50),
            ],
        };
        let got = hop_self_ns(&record);
        assert_eq!(got, vec![("outer", 50), ("a", 30), ("b", 15), ("c", 5)]);
    }
}
