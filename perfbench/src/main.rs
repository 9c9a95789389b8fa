//! Wall-clock benchmark of `asf-server`, driven by a single-process,
//! open-loop source gateway.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <range_fleet|rank_knn|durable_multi> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Events are pre-generated ([`pool`]) and cut into fixed chunks. Chunk `i`
//! is due when its last event is created under the workload's fixed
//! offered rate R; the gateway ingests it when due, or at once if it is
//! already late, then reads the subscribed client's answer. Settle latency
//! runs from the due time to the end of that read. Tolerance checks run at
//! fixed chunk indices outside the timed region: the schedule is shifted
//! by their duration.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! twice on the same events (untraced, then traced with `TraceDepth::Fine`
//! and the benchmark's own spans) and prints the per-layer metrics. Every
//! layer is measured from outside: by timing the public calls and by
//! reading the counters the server exports, as deltas around each call.
//! The last line of standard output is one JSON object; a human summary
//! goes to standard error. Workload parameters live in `workloads.json`.

mod alloc;
mod pool;
mod spans;
mod steal;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use asf_core::engine::Engine;
use asf_core::multi_query::MultiRangeZt;
use asf_core::oracle::{self, TruthRanks};
use asf_core::protocol::{Protocol, Rtp, ZtNrp};
use asf_core::workload::{EventBatch, UpdateEvent};
use asf_core::{AnswerSet, RangeQuery, RankQuery, RankTolerance};
use asf_server::{DurabilityConfig, ServerConfig, ShardedServer, TelemetryConfig, TraceDepth};
use asf_telemetry::{json, validate_chrome_trace};
use simkit::{FaultMix, SimRng};
use streamnet::{ChaosConfig, Ledger, MessageKind};

use pool::{Pool, Replay};
use spans::{CallCounts, Spans};
use steal::Probe;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Where durability directories, spans and traces go (ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const QUERY_SALT: u64 = 0x9E37_79B9;
const CHAOS_SALT: u64 = 0xC4A0_5EED;
const NUM_QUERIES: usize = 1_000;
/// Server trace ring capacity per track in the traced run.
const TRACE_CAPACITY: usize = 16_384;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// One workload's parameters, from `workloads.json`.
struct Spec {
    name: String,
    sources: usize,
    chunk: usize,
    rate: f64,
    pool_events: usize,
    checks: usize,
}

impl Spec {
    fn load(name: &str) -> Result<Self, String> {
        let doc = json::parse(WORKLOADS_JSON)?;
        let all = doc.get("workloads").and_then(|v| v.as_array()).ok_or("no workloads array")?;
        let w = all
            .iter()
            .find(|w| w.get("name").and_then(|v| v.as_str()) == Some(name))
            .ok_or(format!("unknown workload {name}"))?;
        let num = |key: &str| -> Result<f64, String> {
            w.get(key).and_then(|v| v.as_f64()).ok_or(format!("{name}: missing {key}"))
        };
        Ok(Self {
            name: name.to_string(),
            sources: num("sources")? as usize,
            chunk: num("chunk_events")? as usize,
            rate: num("rate_events_per_s")?,
            pool_events: num("pool_events")? as usize,
            checks: num("checks")? as usize,
        })
    }

    /// Chunks offered in `seconds` at rate R.
    fn chunks_for(&self, seconds: f64) -> usize {
        ((self.rate * seconds) / self.chunk as f64).round().max(1.0) as usize
    }

    /// Chunk indices checked for tolerance: `checks` evenly spaced ones,
    /// the last chunk included.
    fn check_points(&self, chunks: usize) -> Vec<usize> {
        let k = self.checks.max(1);
        let mut at: Vec<usize> = (1..=k).map(|j| (j * chunks / k).max(1) - 1).collect();
        at.dedup();
        at
    }
}

/// Outcome of tolerance checks: attempted, failed, first violation.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Checked {
    fn record(&mut self, violation: Option<String>, at: &str) {
        self.attempted += 1;
        if let Some(v) = violation {
            self.failed += 1;
            self.first.get_or_insert_with(|| format!("{at}: {v}"));
        }
    }

    fn absorb(&mut self, other: Checked) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// What differs between the three workloads.
trait Scenario {
    type P: Protocol;
    /// Durability, chaos, and the closing crash + recover.
    const DURABLE: bool;
    /// Serial-engine comparison in the traced run.
    const BASELINE: bool;
    fn protocol(&self) -> Self::P;
    /// The subscribed client's answer read after every chunk.
    fn read(&self, server: &ShardedServer<Self::P>) -> usize;
    /// Tolerance check at a quiescent point, against ground truth.
    fn check(&self, server: &mut ShardedServer<Self::P>, at: &str) -> Checked;
    /// Every answer the server maintains (compared after recovery).
    fn answers(&self, server: &ShardedServer<Self::P>) -> Vec<AnswerSet>;
}

/// ZT-NRP is exact: the answer must equal the true range answer.
struct RangeFleet {
    query: RangeQuery,
}

impl Scenario for RangeFleet {
    type P = ZtNrp;
    const DURABLE: bool = false;
    const BASELINE: bool = true;
    fn protocol(&self) -> ZtNrp {
        ZtNrp::new(self.query)
    }
    fn read(&self, server: &ShardedServer<ZtNrp>) -> usize {
        server.answer().len()
    }
    fn check(&self, server: &mut ShardedServer<ZtNrp>, at: &str) -> Checked {
        let truth = oracle::true_range_answer(self.query, &server.truth_fleet());
        let answer = server.answer();
        let mut c = Checked::default();
        c.record(
            (answer != truth)
                .then(|| format!("|A| = {} but |truth| = {}", answer.len(), truth.len())),
            at,
        );
        c
    }
    fn answers(&self, server: &ShardedServer<ZtNrp>) -> Vec<AnswerSet> {
        vec![server.answer()]
    }
}

/// RTP must satisfy Definition 1 (rank tolerance k + r).
struct RankKnn {
    query: RankQuery,
    r: usize,
}

impl Scenario for RankKnn {
    type P = Rtp;
    const DURABLE: bool = false;
    const BASELINE: bool = true;
    fn protocol(&self) -> Rtp {
        Rtp::new(self.query, self.r).expect("valid RTP configuration")
    }
    fn read(&self, server: &ShardedServer<Rtp>) -> usize {
        server.answer().len()
    }
    fn check(&self, server: &mut ShardedServer<Rtp>, at: &str) -> Checked {
        let truth = TruthRanks::new(self.query.space(), &server.truth_fleet());
        let tol = RankTolerance::new(self.query.k(), self.r).expect("valid rank tolerance");
        let mut c = Checked::default();
        c.record(truth.rank_violation(tol, &server.answer()), at);
        c
    }
    fn answers(&self, server: &ShardedServer<Rtp>) -> Vec<AnswerSet> {
        vec![server.answer()]
    }
}

/// Every query must be exact over the sources the live view still vouches
/// for (dead sources are skipped).
struct DurableMulti {
    queries: Vec<RangeQuery>,
}

impl DurableMulti {
    /// `NUM_QUERIES` seeded queries of width about domain / m.
    fn new(seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ QUERY_SALT);
        let queries = (0..NUM_QUERIES)
            .map(|_| {
                let width = 1000.0 / NUM_QUERIES as f64 * (0.5 + rng.next_f64());
                let lo = rng.range_f64(0.0, 1000.0 - width);
                RangeQuery::new(lo, lo + width).expect("generated query is valid")
            })
            .collect();
        Self { queries }
    }
}

impl Scenario for DurableMulti {
    type P = MultiRangeZt;
    const DURABLE: bool = true;
    const BASELINE: bool = false;
    fn protocol(&self) -> MultiRangeZt {
        MultiRangeZt::new(self.queries.clone()).expect("valid multi-query protocol")
    }
    fn read(&self, server: &ShardedServer<MultiRangeZt>) -> usize {
        server.protocol().answer_of(0).len()
    }
    fn check(&self, server: &mut ShardedServer<MultiRangeZt>, at: &str) -> Checked {
        let fleet = server.truth_fleet();
        let live = server.live_view();
        let chaos = server.chaos().expect("chaos enabled");
        let mut c = Checked::default();
        let mut verified_too = 0;
        for (j, &q) in self.queries.iter().enumerate() {
            let answer = server.protocol().answer_of(j);
            let v = oracle::live_range_exact_violation(q, &answer, &fleet, |id| live.is_known(id));
            // Diagnostic only: does the violation survive when the check is
            // narrowed to the sources the channel layer has verified?
            if v.is_some()
                && oracle::live_range_exact_violation(q, &answer, &fleet, |id| {
                    chaos.is_verified(id)
                })
                .is_some()
            {
                verified_too += 1;
            }
            c.record(v.map(|v| format!("query {j} [{}, {}]: {v}", q.lo(), q.hi())), at);
        }
        if c.failed > 0 {
            eprintln!(
                "{at}: {} of {} queries violate over live_view(); {verified_too} of them also over \
                 the verified population",
                c.failed,
                self.queries.len()
            );
        }
        c
    }
    fn answers(&self, server: &ShardedServer<MultiRangeZt>) -> Vec<AnswerSet> {
        let p = server.protocol();
        let mut all: Vec<AnswerSet> = (0..self.queries.len()).map(|j| p.answer_of(j)).collect();
        all.push(server.answer());
        all
    }
}

/// Declares [`Counters`]: every exported counter the benchmark reads,
/// snapshotted at call boundaries and subtracted field by field.
macro_rules! counters {
    ($($field:ident: |$s:ident| $read:expr,)*) => {
        #[derive(Clone, Copy, Default)]
        struct Counters { $($field: u64,)* }

        impl Counters {
            fn read<P: Protocol>(server: &ShardedServer<P>) -> Self {
                Self { $($field: { let $s = server; $read },)* }
            }

            fn since(&self, before: &Self) -> Self {
                Self { $($field: self.$field.saturating_sub(before.$field),)* }
            }
        }
    };
}

fn msgs<P: Protocol>(s: &ShardedServer<P>, kind: MessageKind) -> u64 {
    s.ledger().count(kind)
}

fn chaos<P: Protocol>(s: &ShardedServer<P>, f: impl Fn(&streamnet::ChaosStats) -> u64) -> u64 {
    s.chaos_stats().map_or(0, f)
}

counters! {
    events: |s| s.events_processed(),
    reports: |s| s.metrics().reports_consumed,
    rounds: |s| s.metrics().rounds,
    cuts: |s| s.metrics().cuts,
    rolled_back: |s| s.metrics().rolled_back,
    window_build_ns: |s| s.metrics().window_build_ns,
    scatter_ns: |s| s.metrics().scatter_ns,
    shard_busy_ns: |s| s.metrics().shard_busy_ns.iter().sum(),
    shard_scan_ns: |s| s.metrics().shard_scan_ns.iter().sum(),
    critical_path_ns: |s| s.metrics().critical_path_ns,
    discarded_busy_ns: |s| s.metrics().discarded_window_busy_ns,
    serial_ns: |s| s.metrics().serial_ns,
    overlap_saved_ns: |s| s.metrics().overlap_saved_ns,
    overlapped_windows: |s| s.metrics().overlapped_windows,
    fleet_wall_ns: |s| s.metrics().fleet.wall_ns,
    fleet_busy_ns: |s| s.metrics().fleet.busy_sum_ns,
    fleet_hidden_ns: |s| s.metrics().fleet.hidden_ns,
    fleet_ops: |s| s.metrics().fleet.batch_ops,
    index_busy_ns: |s| s.metrics().index_busy_sum_ns,
    index_hidden_ns: |s| s.ctx_stats().index_hidden_ns,
    probe_streams: |s| s.ctx_stats().batch_probe_streams,
    install_streams: |s| s.ctx_stats().batch_install_streams,
    delta_refreshes: |s| s.ctx_stats().index_delta_refreshes,
    bulk_builds: |s| s.ctx_stats().index_bulk_builds,
    routing_ns: |s| s.ctx_stats().routing_ns,
    routed_reports: |s| s.ctx_stats().routed_reports,
    queries_touched: |s| s.ctx_stats().queries_touched,
    repair_ns: |s| s.metrics().repair_ns,
    checkpoint_ns: |s| s.metrics().checkpoint_ns,
    checkpoints: |s| s.metrics().checkpoints,
    messages: |s| s.ledger().total(),
    msg_update: |s| msgs(s, MessageKind::Update),
    msg_probe_request: |s| msgs(s, MessageKind::ProbeRequest),
    msg_probe_reply: |s| msgs(s, MessageKind::ProbeReply),
    msg_filter_install: |s| msgs(s, MessageKind::FilterInstall),
    msg_filter_broadcast: |s| msgs(s, MessageKind::FilterBroadcast),
    heartbeats: |s| chaos(s, |c| c.heartbeats_sent),
    overhead_frames: |s| chaos(s, |c| c.overhead_frames),
    lease_renewals: |s| chaos(s, |c| c.lease_renewals),
    repaired_sources: |s| chaos(s, |c| c.repaired_sources),
    retries: |s| chaos(s, |c| c.retries),
    spurious_expirations: |s| chaos(s, |c| c.spurious_expirations),
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sleeps until shortly before `due`, then spins.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(5_000) {
            std::thread::sleep(left - Duration::from_micros(4_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nearest-rank percentile of unsorted samples, in ms.
fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    ms(v[rank.min(v.len()) - 1])
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One server, set up and timed.
struct Built<P: Protocol> {
    server: ShardedServer<P>,
    durable: Option<DurabilityConfig>,
    setup_ns: u64,
    init_index_ns: u64,
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig::new(seed ^ CHAOS_SALT, FaultMix::loss_only(0.01), u64::MAX)
}

fn build<S: Scenario>(
    sc: &S,
    initial: &[f64],
    config: ServerConfig,
    dir: PathBuf,
    seed: u64,
    spans: &mut Spans,
) -> Result<Built<S::P>, String> {
    spans.begin("setup", 0);
    let start = Instant::now();
    spans.begin("setup.new", 0);
    let mut server = ShardedServer::new(initial, sc.protocol(), config);
    spans.end();
    spans.begin("setup.initialize", 0);
    server.initialize();
    spans.end();
    let init_index_ns = server.ctx_stats().index_build_ns;
    let durable = if S::DURABLE {
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig::new(dir);
        spans.begin("setup.enable_durability", 0);
        server.enable_durability(cfg.clone()).map_err(|e| format!("enable_durability: {e}"))?;
        spans.end();
        spans.begin("setup.enable_chaos", 0);
        server.enable_chaos(chaos_config(seed));
        spans.end();
        Some(cfg)
    } else {
        None
    };
    let setup_ns = start.elapsed().as_nanos() as u64;
    spans.end();
    Ok(Built { server, durable, setup_ns, init_index_ns })
}

/// Stops a server that is not crashed on purpose, and drops its files.
fn retire<P: Protocol>(built: Built<P>) {
    built.server.shutdown();
    if let Some(cfg) = built.durable {
        let _ = std::fs::remove_dir_all(cfg.dir);
    }
}

/// What one open-loop pass of the gateway measured.
struct Drive {
    before: Counters,
    after: Counters,
    events: u64,
    /// Wall time of each `ingest_batch` call, one entry per chunk.
    ingest_ns: Vec<u64>,
    answer_read_ns: u64,
    /// Due time to answer read, less the CPU time the host took from the
    /// gateway in between ([`steal`]).
    settle_ns: Vec<u64>,
    /// The same without that chunk's correction (the due time still moves
    /// by what earlier chunks lost).
    settle_wall_ns: Vec<u64>,
    late_ns: Vec<u64>,
    /// Host-taken time, summed over the run.
    stolen_ns: u64,
    backlog_max: u64,
    checked: Checked,
    ingest_errors: u64,
    /// `ingest_batch` calls after which the journal's size had changed:
    /// calls that wrote to the journal.
    journal_writes: u64,
    /// Sequence of the last checkpoint handed to the writer.
    last_checkpoint_seq: u64,
}

fn drive<S: Scenario>(
    sc: &S,
    server: &mut ShardedServer<S::P>,
    replay: &mut Replay<'_>,
    spec: &Spec,
    chunks: usize,
    spans: &mut Spans,
) -> Drive {
    let check_at = spec.check_points(chunks);
    let traced = spans.enabled();
    let mut buf: Vec<UpdateEvent> = Vec::with_capacity(spec.chunk);
    let mut d = Drive {
        before: Counters::read(server),
        after: Counters::default(),
        events: 0,
        ingest_ns: Vec::with_capacity(chunks),
        answer_read_ns: 0,
        settle_ns: Vec::with_capacity(chunks),
        settle_wall_ns: Vec::with_capacity(chunks),
        late_ns: Vec::with_capacity(chunks),
        stolen_ns: 0,
        backlog_max: 0,
        checked: Checked::default(),
        ingest_errors: 0,
        journal_writes: 0,
        last_checkpoint_seq: server.events_processed(),
    };
    let ns_per_event = 1e9 / spec.rate;
    let t0 = Instant::now();
    // Check time and host-taken time are cut out of the schedule.
    let mut paused = Duration::ZERO;
    let mut mark = Probe::now();
    for i in 0..chunks {
        replay.fill(spec.chunk, &mut buf);
        spans.begin("chunk", i as u64);
        let last_event = ((i + 1) * spec.chunk - 1) as f64;
        let due = t0 + paused + Duration::from_nanos((last_event * ns_per_event) as u64);
        spans.begin("gateway.wait", i as u64);
        wait_until(due);
        spans.end();
        let at_start = Probe::now();
        let start = at_start.wall;
        let late = start.saturating_duration_since(due);
        d.late_ns.push(late.as_nanos() as u64);
        // Time the host took while the gateway filled the chunk and spun
        // made it late by at most its lateness.
        let stolen_waiting = at_start.stolen_since(&mark).min(late);
        // Chunks due by now, minus those already settled.
        let on_schedule = (start - t0 - paused).as_nanos() as f64;
        let due_count = ((on_schedule / ns_per_event + 1.0) / spec.chunk as f64) as u64;
        d.backlog_max = d.backlog_max.max(due_count.saturating_sub(i as u64));

        let before = traced.then(|| Counters::read(server));
        let checkpoints = server.metrics().checkpoints;
        let journal_bytes = server.metrics().journal_bytes;
        let expected = server.events_processed() + buf.len() as u64;
        spans.begin("ingest", i as u64);
        let t = Instant::now();
        server.ingest_batch(&buf);
        d.ingest_ns.push(t.elapsed().as_nanos() as u64);
        spans.end_with(before.map(|b| {
            let c = Counters::read(server).since(&b);
            CallCounts {
                events: c.events,
                reports: c.reports,
                rounds: c.rounds,
                cuts: c.cuts,
                messages: c.messages,
                overhead_frames: c.overhead_frames,
            }
        }));
        if server.events_processed() != expected {
            d.ingest_errors += 1;
        }
        if server.metrics().checkpoints != checkpoints {
            d.last_checkpoint_seq = server.events_processed();
        }
        if server.metrics().journal_bytes != journal_bytes {
            d.journal_writes += 1;
        }
        d.events += buf.len() as u64;

        spans.begin("answer_read", i as u64);
        let t = Instant::now();
        black_box(sc.read(server));
        let at_end = Probe::now();
        let end = at_end.wall;
        d.answer_read_ns += (end - t).as_nanos() as u64;
        spans.end();
        let stolen = stolen_waiting + at_end.stolen_since(&at_start);
        let settle = end.saturating_duration_since(due);
        d.settle_wall_ns.push(settle.as_nanos() as u64);
        d.settle_ns.push(settle.saturating_sub(stolen).as_nanos() as u64);
        d.stolen_ns += stolen.as_nanos() as u64;
        paused += stolen;
        mark = at_end;

        if check_at.binary_search(&i).is_ok() {
            let t = Instant::now();
            spans.begin("check", i as u64);
            d.checked.absorb(sc.check(server, &format!("chunk {i}")));
            spans.end();
            paused += t.elapsed();
            mark = Probe::now();
        }
        spans.end();
    }
    d.after = Counters::read(server);
    d
}

/// The closing crash and recovery of `durable_multi`.
struct Recovery {
    recover_ns: u64,
    replay_ns: u64,
    replayed_events: u64,
    /// Recovery failed or the recovered server differs from the crashed one.
    diverged: Option<String>,
}

fn crash_and_recover<S: Scenario>(
    sc: &S,
    mut server: ShardedServer<S::P>,
    initial: &[f64],
    config: ServerConfig,
    durable: &DurabilityConfig,
    last_checkpoint_seq: u64,
    spans: &mut Spans,
) -> Recovery {
    spans.begin("crash", 0);
    // Let the background writer land the last scheduled checkpoint, so the
    // replayed suffix is the same in every run.
    let d = server.durability_mut().expect("durability enabled");
    let deadline = Instant::now() + Duration::from_secs(60);
    while d.durable_floor() < last_checkpoint_seq && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let floor = d.durable_floor();
    let answers = sc.answers(&server);
    let ledger: Ledger = server.ledger().clone();
    let stats = server.chaos_stats().copied();
    let events = server.events_processed();
    drop(server);
    spans.end();

    spans.begin("recover", 0);
    let start = Instant::now();
    let recovered = ShardedServer::recover(initial, sc.protocol(), config, durable.clone());
    let recover_ns = start.elapsed().as_nanos() as u64;
    spans.end();
    let mut out =
        Recovery { recover_ns, replay_ns: 0, replayed_events: events - floor, diverged: None };
    match recovered {
        Err(e) => out.diverged = Some(format!("recover failed: {e}")),
        Ok(rec) => {
            out.replay_ns = rec.metrics().recovery_replay_ns;
            let mismatch = if rec.events_processed() != events {
                Some(format!("events {} != {events}", rec.events_processed()))
            } else if sc.answers(&rec) != answers {
                Some("answers differ".to_string())
            } else if *rec.ledger() != ledger {
                Some("ledger differs".to_string())
            } else if rec.chaos_stats().copied() != stats {
                Some("chaos stats differ".to_string())
            } else {
                None
            };
            out.diverged = mismatch.map(|m| format!("recovered server diverged: {m}"));
            rec.shutdown();
        }
    }
    let _ = std::fs::remove_dir_all(&durable.dir);
    out
}

/// The single-threaded `Engine` over the same events; `Err` if its answer
/// or ledger differs from the server's.
fn engine_baseline<S: Scenario>(
    sc: &S,
    pool: &Pool,
    spec: &Spec,
    chunks: usize,
    server: &ShardedServer<S::P>,
) -> Result<f64, String> {
    let mut engine = Engine::new(&pool.initial, sc.protocol());
    engine.initialize();
    let mut replay = pool.replay();
    let mut buf = Vec::with_capacity(spec.chunk);
    let mut batch = EventBatch::with_capacity(spec.chunk);
    let mut wall_ns = 0u64;
    for _ in 0..chunks {
        replay.fill(spec.chunk, &mut buf);
        batch.clear();
        batch.extend_from_events(&buf);
        let t = Instant::now();
        engine.apply_batch(&batch);
        wall_ns += t.elapsed().as_nanos() as u64;
    }
    if engine.answer() != server.answer() {
        return Err("serial engine answer differs from the server's".into());
    }
    if engine.ledger() != server.ledger() {
        return Err("serial engine ledger differs from the server's".into());
    }
    Ok(engine.events_processed() as f64 / (wall_ns as f64 / 1e9))
}

/// A finished run: the result line's fields plus its metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn durable_dir(spec: &Spec, seed: u64, tag: &str) -> PathBuf {
    out_dir().join(format!("{}-s{seed}-p{}-{tag}", spec.name, std::process::id()))
}

/// Segments over which `ingest_eps` takes its median.
const EPS_SEGMENTS: usize = 8;

/// `stat(segment)` for each of `k` consecutive, equal segments of
/// per-chunk samples, sorted ascending.
fn segment_stats(samples: &[u64], k: usize, stat: impl Fn(&[u64]) -> f64) -> Vec<f64> {
    let k = k.clamp(1, samples.len());
    let len = samples.len() / k;
    let mut out: Vec<f64> = (0..k)
        .map(|i| stat(&samples[i * len..if i + 1 == k { samples.len() } else { (i + 1) * len }]))
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Events per second of `ingest_batch` wall time: the median over
/// [`EPS_SEGMENTS`] segments of events / summed ingest time, so that one
/// slow stretch of the host does not decide a run's figure.
fn ingest_eps(d: &Drive, chunk: usize) -> f64 {
    median(segment_stats(&d.ingest_ns, EPS_SEGMENTS, |seg| {
        (seg.len() * chunk) as f64 / (seg.iter().sum::<u64>() as f64 / 1e9)
    }))
}

/// Whole-run settle-latency percentiles (p50, p99), in ms.
fn settle_ms(d: &Drive) -> (f64, f64) {
    (percentile_ms(&d.settle_ns, 50.0), percentile_ms(&d.settle_ns, 99.0))
}

/// Writes the run's per-chunk samples (ns), for looking behind a figure.
fn write_samples(spec: &Spec, seed: u64, d: &Drive) -> Result<(), String> {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let body = format!(
        "{{\"settle_ns\": [{}],\n\"settle_wall_ns\": [{}],\n\"ingest_ns\": [{}],\n\
         \"late_ns\": [{}]}}\n",
        list(&d.settle_ns),
        list(&d.settle_wall_ns),
        list(&d.ingest_ns),
        list(&d.late_ns)
    );
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("{}-seed{seed}-samples.json", spec.name));
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn log_checks(spec: &Spec, checked: &Checked) {
    if let Some(first) = &checked.first {
        eprintln!(
            "{}: {} of {} tolerance checks failed; first: {first}",
            spec.name, checked.failed, checked.attempted
        );
    }
}

/// `--trace 0`: end-to-end metrics.
fn run_e2e<S: Scenario>(sc: &S, spec: &Spec, args: &Args) -> Result<Report, String> {
    let pool = Pool::generate(spec.sources, spec.pool_events, args.seed);
    let chunks = spec.chunks_for(args.seconds);
    let config = ServerConfig::default();
    let mut spans = Spans::new(false);
    let baseline = alloc::reset_peak();

    // Each set-up replaces the previous server, so only one is alive at a
    // time; the last one serves the run.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        if let Some(prev) = kept.take() {
            retire(prev);
        }
        let dir = durable_dir(spec, args.seed, &format!("setup{k}"));
        let built = build(sc, &pool.initial, config, dir, args.seed, &mut spans)?;
        setup_s.push(built.setup_ns as f64 / 1e9);
        kept = Some(built);
    }
    let Built { mut server, durable, .. } = kept.expect("at least one setup");

    let mut replay = pool.replay();
    let d = drive(sc, &mut server, &mut replay, spec, chunks, &mut spans);
    let mut attempted = d.checked.attempted + chunks as u64;
    let mut failed = d.checked.failed + d.ingest_errors;
    log_checks(spec, &d.checked);
    let mut correct = true;
    match &durable {
        Some(cfg) => {
            let rec = crash_and_recover(
                sc,
                server,
                &pool.initial,
                config,
                cfg,
                d.last_checkpoint_seq,
                &mut spans,
            );
            attempted += 1;
            if let Some(why) = &rec.diverged {
                eprintln!("{}: {why}", spec.name);
                failed += 1;
                correct = false;
            }
            eprintln!(
                "{}: recover_s = {:.6} s ({} events replayed in {:.3} ms)",
                spec.name,
                rec.recover_ns as f64 / 1e9,
                rec.replayed_events,
                ms(rec.replay_ns)
            );
        }
        None => {
            server.shutdown();
        }
    }
    let heap_peak_mb = (alloc::peak() - baseline) as f64 / (1024.0 * 1024.0);
    write_samples(spec, args.seed, &d)?;
    let c = d.after.since(&d.before);
    let eps = ingest_eps(&d, spec.chunk);
    let (settle_p50, settle_p99) = settle_ms(&d);
    let msgs_per_kevent = (c.messages + c.overhead_frames) as f64 * 1000.0 / d.events as f64;
    let setup = median(setup_s.clone());
    eprintln!(
        "{}: {} chunks of {} events at R = {} events/s ({} settle samples, {} setups)",
        spec.name,
        chunks,
        spec.chunk,
        spec.rate,
        d.settle_ns.len(),
        setup_s.len()
    );
    eprintln!(
        "{}: whole run: ingest {} events/s (events / summed ingest wall); settle max = {:.6} ms; \
         uncorrected settle p50 = {:.6} ms, p99 = {:.6} ms; host-taken {:.3} ms; gateway late \
         p99 = {:.6} ms",
        spec.name,
        d.events as f64 / (d.ingest_ns.iter().sum::<u64>() as f64 / 1e9),
        percentile_ms(&d.settle_ns, 100.0),
        percentile_ms(&d.settle_wall_ns, 50.0),
        percentile_ms(&d.settle_wall_ns, 99.0),
        ms(d.stolen_ns),
        percentile_ms(&d.late_ns, 99.0)
    );
    eprintln!(
        "{}: error_rate = {} ({failed} of {attempted} operations); VmHWM = {} KiB",
        spec.name,
        failed as f64 / attempted as f64,
        alloc::vm_hwm_kib().map_or("n/a".to_string(), |k| k.to_string())
    );
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("ingest_eps", eps, "events/s"),
            ("settle_p50_ms", settle_p50, "ms"),
            ("settle_p99_ms", settle_p99, "ms"),
            ("msgs_per_kevent", msgs_per_kevent, "count"),
            ("heap_peak_mb", heap_peak_mb, "MiB"),
            ("setup_s", setup, "s"),
        ],
    })
}

/// `--trace 1`: per-layer metrics from a traced pass, with an untraced
/// pass over the same events for the tracing overhead.
fn run_traced<S: Scenario>(sc: &S, spec: &Spec, args: &Args) -> Result<Report, String> {
    let pool = Pool::generate(spec.sources, spec.pool_events, args.seed);
    let chunks = (spec.chunks_for(args.seconds) / 2).max(1);
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Untraced pass: only its ingest rate is used.
    let plain = ServerConfig::default();
    let mut quiet = Spans::new(false);
    let dir = durable_dir(spec, args.seed, "plain");
    let mut built = build(sc, &pool.initial, plain, dir, args.seed, &mut quiet)?;
    let d = drive(sc, &mut built.server, &mut pool.replay(), spec, chunks, &mut quiet);
    let untraced_eps = ingest_eps(&d, spec.chunk);
    attempted += d.checked.attempted + chunks as u64;
    failed += d.checked.failed + d.ingest_errors;
    retire(built);

    // Traced pass.
    let traced = ServerConfig::default().telemetry(TelemetryConfig {
        trace: TraceDepth::Fine,
        trace_capacity: TRACE_CAPACITY,
        ..TelemetryConfig::default()
    });
    let mut spans = Spans::new(true);
    spans.begin("run", 0);
    let dir = durable_dir(spec, args.seed, "traced");
    let Built { mut server, durable, init_index_ns, .. } =
        build(sc, &pool.initial, traced, dir, args.seed, &mut spans)?;
    let d = drive(sc, &mut server, &mut pool.replay(), spec, chunks, &mut spans);
    attempted += d.checked.attempted + chunks as u64;
    failed += d.checked.failed + d.ingest_errors;
    log_checks(spec, &d.checked);
    let server_trace = server.export_chrome_trace();
    let chaos_state_bytes = server.metrics().chaos_state_bytes;
    let journal_bytes = server.metrics().journal_bytes;
    let dead_sources = server.chaos().map_or(0, |c| c.dead_count() as u64);
    let occupancy_skew = server.metrics().occupancy_skew().unwrap_or(1.0);

    let mut engine_eps = 0.0;
    if S::BASELINE {
        attempted += 1;
        match engine_baseline(sc, &pool, spec, chunks, &server) {
            Ok(eps) => engine_eps = eps,
            Err(why) => {
                eprintln!("{}: {why}", spec.name);
                failed += 1;
                correct = false;
            }
        }
    }
    let mut rec = Recovery { recover_ns: 0, replay_ns: 0, replayed_events: 0, diverged: None };
    match &durable {
        Some(cfg) => {
            rec = crash_and_recover(
                sc,
                server,
                &pool.initial,
                traced,
                cfg,
                d.last_checkpoint_seq,
                &mut spans,
            );
            attempted += 1;
            if let Some(why) = &rec.diverged {
                eprintln!("{}: {why}", spec.name);
                failed += 1;
                correct = false;
            }
        }
        None => {
            server.shutdown();
        }
    }
    spans.end();

    let timeline = spans.merge_chrome(&server_trace)?;
    let trace_events = validate_chrome_trace(&timeline)?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_path = out.join(format!("{}-seed{}-trace.json", spec.name, args.seed));
    let spans_path = out.join(format!("{}-seed{}-spans.json", spec.name, args.seed));
    std::fs::write(&trace_path, timeline).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    std::fs::write(&spans_path, spans.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "{}: trace with {trace_events} events written to {}; spans to {}",
        spec.name,
        trace_path.display(),
        spans_path.display()
    );

    let c = d.after.since(&d.before);
    let ingest_ns: u64 = d.ingest_ns.iter().sum();
    // Disjoint layer times inside `ingest_batch` (see the "nesting" notes
    // in workloads.json). The chaos repair round issues fleet ops of its
    // own, which count in both `repair_ns` and the fleet/index figures, so
    // with chaos on only `repair_ns` is subtracted: the drain-side fleet
    // time then stays in the residual, which never double-counts.
    let drain_side = if S::DURABLE { 0 } else { c.fleet_hidden_ns + c.index_hidden_ns };
    let attributed = c.window_build_ns
        + c.scatter_ns
        + c.shard_busy_ns
        + c.serial_ns
        + drain_side
        + c.repair_ns
        + c.checkpoint_ns;
    let unattributed_ns = ingest_ns as i64 - attributed as i64;
    let kevents = d.events as f64 / 1000.0;
    let per_report = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let metrics = vec![
        ("gateway.late_p99_ms", percentile_ms(&d.late_ns, 99.0), "ms"),
        ("gateway.backlog_max_chunks", d.backlog_max as f64, "count"),
        ("gateway.stolen_ms", ms(d.stolen_ns), "ms"),
        ("server.window_build_ms", ms(c.window_build_ns), "ms"),
        ("server.scatter_ms", ms(c.scatter_ns), "ms"),
        ("server.answer_read_ms", ms(d.answer_read_ns), "ms"),
        ("server.rounds", c.rounds as f64, "count"),
        ("server.cuts", c.cuts as f64, "count"),
        ("server.commit_ratio", c.events as f64 / (c.events + c.rolled_back) as f64, "share"),
        ("server.unattributed_ms", unattributed_ns as f64 / 1e6, "ms"),
        ("shard.busy_ms", ms(c.shard_busy_ns), "ms"),
        ("shard.scan_ms", ms(c.shard_scan_ns), "ms"),
        ("shard.critical_path_ms", ms(c.critical_path_ns), "ms"),
        ("shard.discarded_busy_ms", ms(c.discarded_busy_ns), "ms"),
        ("shard.occupancy_skew", occupancy_skew, "ratio"),
        ("pipeline.overlap_saved_ms", ms(c.overlap_saved_ns), "ms"),
        ("pipeline.overlapped_windows", c.overlapped_windows as f64, "count"),
        ("protocol.reports_per_kevent", c.reports as f64 / kevents, "count"),
        ("protocol.serial_ms", ms(c.serial_ns), "ms"),
        ("protocol.msgs.update", c.msg_update as f64, "count"),
        ("protocol.msgs.probe_request", c.msg_probe_request as f64, "count"),
        ("protocol.msgs.probe_reply", c.msg_probe_reply as f64, "count"),
        ("protocol.msgs.filter_install", c.msg_filter_install as f64, "count"),
        ("protocol.msgs.filter_broadcast", c.msg_filter_broadcast as f64, "count"),
        ("router.fleet_wall_ms", ms(c.fleet_wall_ns), "ms"),
        ("router.fleet_busy_ms", ms(c.fleet_busy_ns), "ms"),
        ("router.batch_ops", c.fleet_ops as f64, "count"),
        ("router.probe_streams", c.probe_streams as f64, "count"),
        ("router.install_streams", c.install_streams as f64, "count"),
        ("rank.index_busy_ms", ms(c.index_busy_ns), "ms"),
        ("rank.delta_refreshes", c.delta_refreshes as f64, "count"),
        ("rank.bulk_builds", c.bulk_builds as f64, "count"),
        ("rank.init_index_ms", ms(init_index_ns), "ms"),
        ("multi_query.routing_ms", ms(c.routing_ns), "ms"),
        ("multi_query.routed_reports", c.routed_reports as f64, "count"),
        (
            "multi_query.queries_touched_per_report",
            per_report(c.queries_touched, c.routed_reports),
            "count",
        ),
        ("chaos.heartbeats", c.heartbeats as f64, "count"),
        ("chaos.overhead_frames", c.overhead_frames as f64, "count"),
        ("chaos.lease_renewals", c.lease_renewals as f64, "count"),
        ("chaos.repair_ms", ms(c.repair_ns), "ms"),
        ("chaos.repaired_sources", c.repaired_sources as f64, "count"),
        ("chaos.retries", c.retries as f64, "count"),
        ("chaos.spurious_expirations", c.spurious_expirations as f64, "count"),
        ("chaos.dead_sources", dead_sources as f64, "count"),
        ("chaos.state_bytes", chaos_state_bytes as f64, "bytes"),
        ("durability.journal_bytes", journal_bytes as f64, "bytes"),
        ("durability.journal_appends", d.journal_writes as f64, "count"),
        ("durability.checkpoints", c.checkpoints as f64, "count"),
        ("durability.checkpoint_ms", ms(c.checkpoint_ns), "ms"),
        ("durability.replay_ms", ms(rec.replay_ns), "ms"),
        ("durability.replayed_events", rec.replayed_events as f64, "count"),
        ("durability.recover_ms", ms(rec.recover_ns), "ms"),
        ("telemetry.trace_overhead", untraced_eps / ingest_eps(&d, spec.chunk), "ratio"),
        ("baseline.engine_eps", engine_eps, "events/s"),
    ];
    Ok(Report { correct, attempted, failed, metrics })
}

fn run<S: Scenario>(sc: &S, spec: &Spec, args: &Args) -> Result<Report, String> {
    if args.trace {
        run_traced(sc, spec, args)
    } else {
        run_e2e(sc, spec, args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let report = Spec::load(&args.workload).and_then(|spec| match spec.name.as_str() {
        "range_fleet" => {
            run(&RangeFleet { query: RangeQuery::new(400.0, 600.0).expect("valid") }, &spec, &args)
        }
        "rank_knn" => {
            let query = RankQuery::knn(500.0, 16).expect("valid k-NN query");
            run(&RankKnn { query, r: 16 }, &spec, &args)
        }
        "durable_multi" => run(&DurableMulti::new(args.seed), &spec, &args),
        other => Err(format!("no scenario for workload {other}")),
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        eprintln!("{}: {name} = {value} {unit}", args.workload);
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
