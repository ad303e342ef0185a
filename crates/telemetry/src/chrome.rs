//! Chrome trace-event JSON export and the structural validator CI runs.
//!
//! The export targets the `chrome://tracing` / Perfetto "JSON object
//! format": `{"traceEvents": [...]}` with `"B"`/`"E"` duration pairs,
//! `"i"` instants and `"M"` process/thread-name metadata. Track layout:
//!
//! - **pid 0** is the serving layer. `tid 1` is the recalibration track,
//!   `tid 2` the row of serving events not tied to a request, and each
//!   request gets its own `tid == TraceId` row (trace ids start above the
//!   reserved tids) carrying its admission instant, queue-wait span and
//!   request span.
//! - **pid = executor tag** for each `PlanExecutor`. `tid 1` is its arena
//!   track; every run gets its own lane rows (and per-kernel rows for
//!   synthesized tile parents) so concurrent runs on one executor never
//!   interleave B/E pairs on a shared track.
//! - Tiles additionally get a **synthesized parent kernel span** covering
//!   min(tile start) → max(tile end), on a per-(run, kernel) row; the
//!   validator checks every tile span is temporally contained in it.

use crate::json::{self, Value};
use crate::trace::{EventKind, RecalPhase, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Reserved serving-pid track for recalibration spans.
const RECAL_TID: u64 = 1;
/// Reserved serving-pid track for serving events not tied to a request.
const UNTRACED_TID: u64 = 2;
/// Reserved executor-pid track for arena highwater instants.
const ARENA_TID: u64 = 1;
/// First per-run track id inside an executor pid (clears the reserved ids).
const TRACK_BASE: u64 = 16;
/// Track-id stride between runs: lanes live at `base + lane`, synthesized
/// kernel parents at `base + KERNEL_OFF + kernel`.
const RUN_STRIDE: u64 = 4096;
/// Offset of kernel-parent tracks within a run's stride.
const KERNEL_OFF: u64 = 2048;

struct Record {
    ts: f64,
    seq: usize,
    pid: u64,
    tid: u64,
    ph: &'static str,
    name: String,
    cat: &'static str,
    /// Pre-rendered `"k": v` pairs (no braces).
    args: String,
}

/// Render recorded events as Chrome trace-event JSON. Events may arrive in
/// any order; output records are sorted by timestamp (metadata first) and
/// tile runs get synthesized parent kernel spans.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut events: Vec<TraceEvent> = events.to_vec();
    events.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));

    let mut records: Vec<Record> = Vec::new();
    let mut seq = 0usize;
    let mut push = |records: &mut Vec<Record>, mut r: Record| {
        r.seq = seq;
        seq += 1;
        records.push(r);
    };
    let span = |records: &mut Vec<Record>,
                push: &mut dyn FnMut(&mut Vec<Record>, Record),
                pid: u64,
                tid: u64,
                name: String,
                cat: &'static str,
                start: f64,
                dur: f64,
                args: String| {
        push(
            records,
            Record {
                ts: start,
                seq: 0,
                pid,
                tid,
                ph: "B",
                name: name.clone(),
                cat,
                args,
            },
        );
        push(
            records,
            Record {
                ts: start + dur.max(0.0),
                seq: 0,
                pid,
                tid,
                ph: "E",
                name,
                cat,
                args: String::new(),
            },
        );
    };

    // (exec, run, kernel) -> (min start, max end, tile count, trace).
    type TileGroups = BTreeMap<(u64, u64, usize), (f64, f64, usize, u64)>;
    let mut tile_groups: TileGroups = BTreeMap::new();

    for e in &events {
        // A request's own row; untraced serving events share one row.
        let request_tid = if e.trace == 0 { UNTRACED_TID } else { e.trace };
        match e.kind {
            EventKind::Admitted { queue_depth } => push(
                &mut records,
                Record {
                    ts: e.start_us,
                    seq: 0,
                    pid: 0,
                    tid: request_tid,
                    ph: "i",
                    name: "admitted".into(),
                    cat: "serving",
                    args: format!("\"trace\": {}, \"queue_depth\": {queue_depth}", e.trace),
                },
            ),
            EventKind::QueueWait => span(
                &mut records,
                &mut push,
                0,
                request_tid,
                "queue-wait".into(),
                "serving",
                e.start_us,
                e.dur_us,
                format!("\"trace\": {}", e.trace),
            ),
            EventKind::Request => span(
                &mut records,
                &mut push,
                0,
                request_tid,
                "request".into(),
                "serving",
                e.start_us,
                e.dur_us,
                format!("\"trace\": {}", e.trace),
            ),
            EventKind::Kernel {
                exec,
                run,
                kernel,
                lane,
            } => span(
                &mut records,
                &mut push,
                exec,
                TRACK_BASE + run * RUN_STRIDE + lane as u64,
                format!("kernel k{kernel}"),
                "kernel",
                e.start_us,
                e.dur_us,
                format!(
                    "\"trace\": {}, \"run\": {run}, \"kernel\": {kernel}, \"lane\": {lane}",
                    e.trace
                ),
            ),
            EventKind::Tile {
                exec,
                run,
                kernel,
                lane,
                tile,
            } => {
                span(
                    &mut records,
                    &mut push,
                    exec,
                    TRACK_BASE + run * RUN_STRIDE + lane as u64,
                    format!("tile k{kernel}.{tile}"),
                    "tile",
                    e.start_us,
                    e.dur_us,
                    format!(
                        "\"trace\": {}, \"run\": {run}, \"kernel\": {kernel}, \"lane\": {lane}, \"tile\": {tile}",
                        e.trace
                    ),
                );
                let end = e.start_us + e.dur_us.max(0.0);
                let g = tile_groups
                    .entry((exec, run, kernel))
                    .or_insert((e.start_us, end, 0, e.trace));
                g.0 = g.0.min(e.start_us);
                g.1 = g.1.max(end);
                g.2 += 1;
                if e.trace != 0 {
                    g.3 = e.trace;
                }
            }
            EventKind::ArenaHighwater {
                exec,
                live_bytes,
                peak_bytes,
            } => push(
                &mut records,
                Record {
                    ts: e.start_us,
                    seq: 0,
                    pid: exec,
                    tid: ARENA_TID,
                    ph: "i",
                    name: "arena-highwater".into(),
                    cat: "arena",
                    args: format!("\"live_bytes\": {live_bytes}, \"peak_bytes\": {peak_bytes}"),
                },
            ),
            EventKind::RecalPhase { phase, generation } => span(
                &mut records,
                &mut push,
                0,
                RECAL_TID,
                match phase {
                    RecalPhase::Fit => "recal:fit".into(),
                    RecalPhase::Replan => "recal:replan".into(),
                    RecalPhase::Swap => "recal:swap".into(),
                },
                "recal",
                e.start_us,
                e.dur_us,
                format!("\"generation\": {generation}"),
            ),
        }
    }

    // Synthesized parent kernel spans for every tiled (exec, run, kernel):
    // tiles nest inside them in the viewer and the validator checks the
    // containment.
    for (&(exec, run, kernel), &(start, end, tiles, trace)) in &tile_groups {
        span(
            &mut records,
            &mut push,
            exec,
            TRACK_BASE + run * RUN_STRIDE + KERNEL_OFF + kernel as u64,
            format!("kernel k{kernel}"),
            "kernel",
            start,
            end - start,
            format!("\"trace\": {trace}, \"run\": {run}, \"kernel\": {kernel}, \"tiles\": {tiles}"),
        );
    }

    // Same-timestamp records keep emission order (spans were emitted in
    // start order, B before its own E), so stack discipline survives ties.
    records.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.seq.cmp(&b.seq)));

    // Name the tracks. Metadata records lead the array with ts 0.
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    let mut pids: Vec<u64> = records.iter().map(|r| r.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    let mut first = true;
    for pid in &pids {
        let pname = if *pid == 0 {
            "serving".to_string()
        } else {
            format!("executor-{pid}")
        };
        meta_record(&mut out, &mut first, *pid, 0, "process_name", &pname);
    }
    let mut tids: Vec<(u64, u64)> = records.iter().map(|r| (r.pid, r.tid)).collect();
    tids.sort_unstable();
    tids.dedup();
    for (pid, tid) in &tids {
        meta_record(
            &mut out,
            &mut first,
            *pid,
            *tid,
            "thread_name",
            &track_name(*pid, *tid),
        );
    }
    for r in &records {
        let sep = if first { "" } else { ",\n" };
        first = false;
        write!(
            out,
            "{sep}    {{ \"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}",
            json::escape(&r.name),
            r.cat,
            r.ph,
            r.pid,
            r.tid,
            r.ts,
        )
        .unwrap();
        if r.ph == "i" {
            out.push_str(", \"s\": \"t\"");
        }
        if r.args.is_empty() {
            out.push_str(" }");
        } else {
            write!(out, ", \"args\": {{ {} }} }}", r.args).unwrap();
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn meta_record(out: &mut String, first: &mut bool, pid: u64, tid: u64, kind: &str, name: &str) {
    let sep = if *first { "" } else { ",\n" };
    *first = false;
    write!(
        out,
        "{sep}    {{ \"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": 0.000, \"args\": {{ \"name\": \"{}\" }} }}",
        json::escape(name)
    )
    .unwrap();
}

fn track_name(pid: u64, tid: u64) -> String {
    if pid == 0 {
        match tid {
            RECAL_TID => "recalibration".into(),
            UNTRACED_TID => "untraced".into(),
            t => format!("request-{t}"),
        }
    } else if tid == ARENA_TID {
        "arena".into()
    } else if tid >= TRACK_BASE {
        let rel = tid - TRACK_BASE;
        let (run, off) = (rel / RUN_STRIDE, rel % RUN_STRIDE);
        if off >= KERNEL_OFF {
            format!("run{run} kernel{}", off - KERNEL_OFF)
        } else {
            format!("run{run} lane{off}")
        }
    } else {
        format!("track-{tid}")
    }
}

/// What [`validate_chrome_trace`] measured while checking an export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceCheck {
    /// Total records in `traceEvents` (including metadata).
    pub events: usize,
    /// Completed B/E span pairs.
    pub spans: usize,
    /// Instant (`"i"`) records.
    pub instants: usize,
    /// Completed span pairs with category `tile`.
    pub tile_spans: usize,
    /// Distinct non-zero `args.trace` ids seen, ascending.
    pub trace_ids: Vec<u64>,
}

#[derive(Clone)]
struct Span {
    pid: u64,
    cat: String,
    start: f64,
    end: f64,
    run: Option<u64>,
    kernel: Option<u64>,
}

/// Structurally validate a Chrome trace-event JSON export: well-formed
/// JSON, per-track balanced and name-matched B/E pairs, globally monotone
/// timestamps (metadata aside), non-negative span durations, and every
/// tile span temporally contained in a parent kernel span of the same
/// `(pid, run, kernel)`. Returns counts useful for asserting coverage.
pub fn validate_chrome_trace(src: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(src)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing \"traceEvents\" array")?;

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    // (pid, tid) -> stack of open (name, ts, cat, run, kernel).
    type OpenSpan = (String, f64, String, Option<u64>, Option<u64>);
    let mut stacks: BTreeMap<(u64, u64), Vec<OpenSpan>> = BTreeMap::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut last_ts: Option<f64> = None;
    // Dedup set for trace ids: a real serving export carries thousands of
    // distinct ids over ~10^6 events, so membership checks must not scan
    // the output Vec per event.
    let mut trace_ids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();

    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| e.get(k).ok_or(format!("event {i}: missing \"{k}\""));
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {i}: \"ph\" not a string"))?
            .to_string();
        let name = field("name")?
            .as_str()
            .ok_or(format!("event {i}: \"name\" not a string"))?
            .to_string();
        let pid = field("pid")?
            .as_u64()
            .ok_or(format!("event {i}: \"pid\" not an integer"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or(format!("event {i}: \"tid\" not an integer"))?;
        let ts = field("ts")?
            .as_f64()
            .ok_or(format!("event {i}: \"ts\" not a number"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        if let Some(trace) = e
            .get("args")
            .and_then(|a| a.get("trace"))
            .and_then(Value::as_u64)
        {
            if trace != 0 {
                trace_ids.insert(trace);
            }
        }
        if ph == "M" {
            continue;
        }
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamp {ts} went backwards (prev {prev})"
                ));
            }
        }
        last_ts = Some(ts);
        let cat = e
            .get("cat")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let run = e
            .get("args")
            .and_then(|a| a.get("run"))
            .and_then(Value::as_u64);
        let kernel = e
            .get("args")
            .and_then(|a| a.get("kernel"))
            .and_then(Value::as_u64);
        match ph.as_str() {
            "B" => stacks
                .entry((pid, tid))
                .or_default()
                .push((name, ts, cat, run, kernel)),
            "E" => {
                let (open_name, start, open_cat, open_run, open_kernel) = stacks
                    .get_mut(&(pid, tid))
                    .and_then(Vec::pop)
                    .ok_or(format!("event {i}: \"E\" with no open span on track"))?;
                if open_name != name {
                    return Err(format!(
                        "event {i}: \"E\" name {name:?} does not match open span {open_name:?}"
                    ));
                }
                if ts < start {
                    return Err(format!("event {i}: span {name:?} ends before it starts"));
                }
                check.spans += 1;
                if open_cat == "tile" {
                    check.tile_spans += 1;
                }
                spans.push(Span {
                    pid,
                    cat: open_cat,
                    start,
                    end: ts,
                    run: open_run,
                    kernel: open_kernel,
                });
            }
            "i" => check.instants += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }

    for ((pid, tid), stack) in &stacks {
        if let Some((name, ..)) = stack.last() {
            return Err(format!(
                "unbalanced span {name:?} left open on pid {pid} tid {tid}"
            ));
        }
    }

    // Every tile span must nest (temporally) inside a kernel span of the
    // same (pid, run, kernel). Index kernel spans by that key first: a
    // per-tile scan over every span is quadratic and a full serving
    // export has hundreds of thousands of tile spans.
    let eps = 1e-9;
    // (pid, run, kernel) -> [(start, end)] of matching kernel spans.
    type KernelWindows = BTreeMap<(u64, Option<u64>, Option<u64>), Vec<(f64, f64)>>;
    let mut kernels: KernelWindows = BTreeMap::new();
    for k in spans.iter().filter(|s| s.cat == "kernel") {
        kernels
            .entry((k.pid, k.run, k.kernel))
            .or_default()
            .push((k.start, k.end));
    }
    for tile in spans.iter().filter(|s| s.cat == "tile") {
        let (run, kernel) = (tile.run, tile.kernel);
        if run.is_none() || kernel.is_none() {
            return Err("tile span without run/kernel args".into());
        }
        let contained = kernels
            .get(&(tile.pid, run, kernel))
            .is_some_and(|windows| {
                windows
                    .iter()
                    .any(|&(start, end)| start <= tile.start + eps && tile.end <= end + eps)
            });
        if !contained {
            return Err(format!(
                "tile span (pid {}, run {:?}, kernel {:?}) not contained in any parent kernel span",
                tile.pid, run, kernel
            ));
        }
    }

    check.trace_ids = trace_ids.into_iter().collect();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, RecalPhase, TraceEvent};

    fn tile(
        trace: u64,
        run: u64,
        kernel: usize,
        lane: usize,
        tile: usize,
        start: f64,
    ) -> TraceEvent {
        TraceEvent {
            trace,
            start_us: start,
            dur_us: 4.0,
            kind: EventKind::Tile {
                exec: 1,
                run,
                kernel,
                lane,
                tile,
            },
        }
    }

    #[test]
    fn export_of_mixed_events_validates() {
        let events = vec![
            TraceEvent {
                trace: 17,
                start_us: 1.0,
                dur_us: 0.0,
                kind: EventKind::Admitted { queue_depth: 3 },
            },
            TraceEvent {
                trace: 17,
                start_us: 1.0,
                dur_us: 2.0,
                kind: EventKind::QueueWait,
            },
            TraceEvent {
                trace: 17,
                start_us: 3.5,
                dur_us: 20.0,
                kind: EventKind::Request,
            },
            TraceEvent {
                trace: 17,
                start_us: 5.0,
                dur_us: 6.0,
                kind: EventKind::Kernel {
                    exec: 1,
                    run: 1,
                    kernel: 0,
                    lane: 0,
                },
            },
            tile(17, 1, 1, 0, 0, 12.0),
            tile(17, 1, 1, 1, 1, 13.0),
            TraceEvent {
                trace: 0,
                start_us: 18.0,
                dur_us: 0.0,
                kind: EventKind::ArenaHighwater {
                    exec: 1,
                    live_bytes: 0,
                    peak_bytes: 4096,
                },
            },
            TraceEvent {
                trace: 0,
                start_us: 20.0,
                dur_us: 5.0,
                kind: EventKind::RecalPhase {
                    phase: RecalPhase::Fit,
                    generation: 1,
                },
            },
        ];
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("valid");
        // queue-wait, request, kernel, 2 tiles, synthesized parent, recal.
        assert_eq!(check.spans, 7);
        assert_eq!(check.tile_spans, 2);
        // admitted, arena.
        assert_eq!(check.instants, 2);
        assert_eq!(check.trace_ids, vec![17]);
        assert!(json.contains("\"displayTimeUnit\""));
        assert!(json.contains("executor-1"));
        assert!(json.contains("request-17"));
    }

    #[test]
    fn zero_duration_span_keeps_b_before_e() {
        let events = vec![TraceEvent {
            trace: 20,
            start_us: 2.0,
            dur_us: 0.0,
            kind: EventKind::QueueWait,
        }];
        let check = validate_chrome_trace(&chrome_trace_json(&events)).expect("valid");
        assert_eq!(check.spans, 1);
    }

    #[test]
    fn back_to_back_spans_on_one_track_validate() {
        // end(span 1) == start(span 2) on the same lane track: emission
        // order must break the timestamp tie as E-then-B.
        let events = vec![
            TraceEvent {
                trace: 0,
                start_us: 1.0,
                dur_us: 2.0,
                kind: EventKind::Kernel {
                    exec: 1,
                    run: 1,
                    kernel: 0,
                    lane: 0,
                },
            },
            TraceEvent {
                trace: 0,
                start_us: 3.0,
                dur_us: 2.0,
                kind: EventKind::Kernel {
                    exec: 1,
                    run: 1,
                    kernel: 1,
                    lane: 0,
                },
            },
        ];
        let check = validate_chrome_trace(&chrome_trace_json(&events)).expect("valid");
        assert_eq!(check.spans, 2);
    }

    #[test]
    fn concurrent_runs_get_disjoint_tracks() {
        // Two overlapping runs on one executor: same lane, overlapping
        // intervals. Per-run track ids keep the B/E pairs separated.
        let events = vec![
            TraceEvent {
                trace: 16,
                start_us: 1.0,
                dur_us: 10.0,
                kind: EventKind::Kernel {
                    exec: 1,
                    run: 1,
                    kernel: 0,
                    lane: 0,
                },
            },
            TraceEvent {
                trace: 17,
                start_us: 2.0,
                dur_us: 10.0,
                kind: EventKind::Kernel {
                    exec: 1,
                    run: 2,
                    kernel: 0,
                    lane: 0,
                },
            },
        ];
        let check = validate_chrome_trace(&chrome_trace_json(&events)).expect("valid");
        assert_eq!(check.spans, 2);
        assert_eq!(check.trace_ids, vec![16, 17]);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        // Unbalanced: B without E.
        let bad = r#"{"traceEvents": [
            { "name": "x", "cat": "serving", "ph": "B", "pid": 0, "tid": 5, "ts": 1.0 }
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("unbalanced"));
        // Mismatched close name.
        let bad = r#"{"traceEvents": [
            { "name": "x", "cat": "s", "ph": "B", "pid": 0, "tid": 5, "ts": 1.0 },
            { "name": "y", "cat": "s", "ph": "E", "pid": 0, "tid": 5, "ts": 2.0 }
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("does not match"));
        // Backwards timestamps.
        let bad = r#"{"traceEvents": [
            { "name": "a", "cat": "s", "ph": "i", "pid": 0, "tid": 5, "ts": 2.0 },
            { "name": "b", "cat": "s", "ph": "i", "pid": 0, "tid": 5, "ts": 1.0 }
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("backwards"));
        // E with nothing open.
        let bad = r#"{"traceEvents": [
            { "name": "a", "cat": "s", "ph": "E", "pid": 0, "tid": 5, "ts": 2.0 }
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open span"));
        // Tile span with no containing kernel parent.
        let bad = r#"{"traceEvents": [
            { "name": "tile k0.0", "cat": "tile", "ph": "B", "pid": 1, "tid": 16, "ts": 1.0,
              "args": { "run": 1, "kernel": 0, "tile": 0 } },
            { "name": "tile k0.0", "cat": "tile", "ph": "E", "pid": 1, "tid": 16, "ts": 2.0 }
        ]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("not contained"));
        // Not JSON at all.
        assert!(validate_chrome_trace("nope").is_err());
    }

    #[test]
    fn tile_outside_parent_window_is_rejected() {
        // Hand-build a trace where the kernel parent is too short.
        let good_tiles = r#"{"traceEvents": [
            { "name": "kernel k0", "cat": "kernel", "ph": "B", "pid": 1, "tid": 20, "ts": 1.0,
              "args": { "run": 1, "kernel": 0 } },
            { "name": "kernel k0", "cat": "kernel", "ph": "E", "pid": 1, "tid": 20, "ts": 3.0 },
            { "name": "tile k0.0", "cat": "tile", "ph": "B", "pid": 1, "tid": 16, "ts": 4.0,
              "args": { "run": 1, "kernel": 0 } },
            { "name": "tile k0.0", "cat": "tile", "ph": "E", "pid": 1, "tid": 16, "ts": 5.0 }
        ]}"#;
        assert!(validate_chrome_trace(good_tiles)
            .unwrap_err()
            .contains("not contained"));
    }
}
