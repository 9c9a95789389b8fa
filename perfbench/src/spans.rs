//! The benchmark's own spans, kept in memory and written out at the end,
//! and their merge with the server's trace into one Chrome timeline.

use std::fmt::Write as _;
use std::time::Instant;

use asf_telemetry::trace::TracePhase;
use asf_telemetry::{chrome_trace, json, TraceEvent};

/// One closed or open span.
pub struct Span {
    pub name: &'static str,
    /// Chunk index for per-chunk spans, 0 otherwise.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas across the call (`ingest` spans only).
    pub counts: Option<CallCounts>,
}

/// Counter deltas across one `ingest_batch` call.
#[derive(Clone, Copy, Default)]
pub struct CallCounts {
    pub events: u64,
    pub reports: u64,
    pub rounds: u64,
    pub cuts: u64,
    pub messages: u64,
    pub overhead_frames: u64,
}

/// Records spans when enabled; every call is a branch when not.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    events: Vec<TraceEvent>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            events: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let ts_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: ts_ns,
            end_ns: ts_ns,
            counts: None,
        });
        self.open.push(self.spans.len() - 1);
        self.events.push(TraceEvent { name, phase: TracePhase::Begin, ts_ns, seq: id });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        self.end_with(None);
    }

    /// Closes the innermost open span, attaching counter deltas.
    pub fn end_with(&mut self, counts: Option<CallCounts>) {
        if !self.enabled {
            return;
        }
        let ts_ns = self.now_ns();
        let idx = self.open.pop().expect("end without an open span");
        self.spans[idx].end_ns = ts_ns;
        self.spans[idx].counts = counts;
        self.events.push(TraceEvent { name: "", phase: TracePhase::End, ts_ns, seq: 0 });
    }

    /// Start of the last span named `name`, in ns since the epoch.
    pub fn last_start(&self, name: &str) -> Option<u64> {
        self.spans.iter().rev().find(|s| s.name == name).map(|s| s.start_ns)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"idx\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.id, s.start_ns, s.end_ns
            );
            if let Some(c) = s.counts {
                let _ = write!(
                    out,
                    ", \"events\": {}, \"reports\": {}, \"rounds\": {}, \"cuts\": {}, \
                     \"messages\": {}, \"overhead_frames\": {}",
                    c.events, c.reports, c.rounds, c.cuts, c.messages, c.overhead_frames
                );
            }
            out.push('}');
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push(']');
        out
    }

    /// Merges these spans with a server export (`export_chrome_trace`)
    /// into one timeline. The server's rings count from the epoch taken
    /// inside `ShardedServer::new`; the offset between the two clocks is
    /// recovered from the server's `initialize` span, which starts with
    /// this benchmark's last `setup.initialize` span.
    pub fn merge_chrome(&self, server_trace: &str) -> Result<String, String> {
        let doc = json::parse(server_trace)?;
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).ok_or("no traceEvents")?;
        let mut tracks: Vec<(u32, String, Vec<TraceEvent>)> = Vec::new();
        let mut server_init_us: Option<f64> = None;
        for ev in events {
            let tid = ev.get("tid").and_then(|v| v.as_f64()).ok_or("event without tid")? as u32;
            let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or("event without ph")?;
            let name = ev.get("name").and_then(|v| v.as_str()).unwrap_or("");
            if ph == "M" {
                let label = ev.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str());
                tracks.push((tid, label.unwrap_or("server").to_string(), Vec::new()));
                continue;
            }
            let ts_us = ev.get("ts").and_then(|v| v.as_f64()).ok_or("event without ts")?;
            if name == "initialize" && tid == 0 && server_init_us.is_none() {
                server_init_us = Some(ts_us);
            }
            let phase = match ph {
                "B" => TracePhase::Begin,
                "E" => TracePhase::End,
                _ => TracePhase::Instant,
            };
            let seq = ev.get("args").and_then(|a| a.get("seq")).and_then(|v| v.as_f64());
            let track = tracks.iter_mut().find(|t| t.0 == tid).ok_or("event before its track")?;
            track.2.push(TraceEvent {
                name: intern(name),
                phase,
                ts_ns: (ts_us * 1e3).round() as u64,
                seq: seq.unwrap_or(0.0) as u64,
            });
        }
        // Shift the server tracks onto this benchmark's clock.
        let init = self.last_start("setup.initialize").ok_or("no setup.initialize span")?;
        let server_init_ns =
            (server_init_us.ok_or("server trace has no initialize span")? * 1e3).round() as u64;
        let shift = init.saturating_sub(server_init_ns);
        for (_, _, evs) in tracks.iter_mut() {
            for ev in evs.iter_mut() {
                ev.ts_ns += shift;
            }
        }
        let bench_tid = tracks.iter().map(|t| t.0).max().unwrap_or(0) + 1;
        tracks.push((bench_tid, "benchmark".to_string(), self.events.clone()));
        let named: Vec<(u32, &str, Vec<TraceEvent>)> =
            tracks.into_iter().map(|(tid, name, evs)| (tid, leak(name), evs)).collect();
        Ok(chrome_trace(&named))
    }
}

/// `TraceEvent` names are `&'static str`; the server's span names are a
/// small fixed set, so each distinct one is leaked once.
fn intern(name: &str) -> &'static str {
    use std::sync::Mutex;
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock().expect("name table lock poisoned");
    if let Some(&n) = names.iter().find(|&&n| n == name) {
        return n;
    }
    let n = leak(name.to_string());
    names.push(n);
    n
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}
