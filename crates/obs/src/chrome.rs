//! Chrome trace-event JSON export of a [`TraceBuffer`].
//!
//! The output follows the Trace Event Format (JSON object form) that
//! Perfetto and `chrome://tracing` load directly: a `traceEvents` array
//! of metadata (`ph: "M"`), instant (`ph: "i"`) and complete
//! (`ph: "X"`) events, one thread per [`Track`]. Timestamps are
//! simulator cycles; `displayTimeUnit` is set to `ns` so viewers show
//! raw cycle counts.
//!
//! The writer is hand-rolled (this crate is dependency-free) and fully
//! deterministic: events appear in recording order, tracks in tid
//! order, and `args` keys in a fixed order per event kind.

use crate::event::{EventKind, TraceBuffer, Track};

/// Schema tag embedded in `otherData.schema`; the validator in
/// `ignite-cluster` requires it.
pub const CHROME_SCHEMA: &str = "ignite-trace-chrome-v1";

/// Export options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeOptions<'a> {
    /// Process name shown in the viewer (e.g. `"ignite-cluster"`).
    pub process_name: &'a str,
    /// Function display names; invocation spans for function `i` are
    /// labelled `function_names[i]` when present, `fn<i>` otherwise.
    pub function_names: &'a [String],
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_args(out: &mut String, kind: &EventKind) {
    let mut first = true;
    let mut field = |out: &mut String, key: &str, value: u64| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&value.to_string());
    };
    match *kind {
        EventKind::Arrival { function } => field(out, "function", u64::from(function)),
        EventKind::Routed { function, node } => {
            field(out, "function", u64::from(function));
            field(out, "node", u64::from(node));
        }
        EventKind::Dispatch { function, queue_cycles } => {
            field(out, "function", u64::from(function));
            field(out, "queue_cycles", queue_cycles);
        }
        EventKind::Invocation { function, invocation } => {
            field(out, "function", u64::from(function));
            field(out, "invocation", invocation);
        }
        EventKind::Complete { function, service_cycles } => {
            field(out, "function", u64::from(function));
            field(out, "service_cycles", service_cycles);
        }
        EventKind::ContextSwitch => {}
        EventKind::TopDown { cycles, .. } => field(out, "cycles", cycles),
        EventKind::RecordBegin { container } => field(out, "container", container),
        EventKind::RecordEnd { container, entries, bytes } => {
            field(out, "container", container);
            field(out, "entries", entries);
            field(out, "bytes", bytes);
        }
        EventKind::ReplayBegin { container, entries } => {
            field(out, "container", container);
            field(out, "entries", entries);
        }
        EventKind::ReplayEnd { container, restored } => {
            field(out, "container", container);
            field(out, "restored", restored);
        }
        EventKind::ReplayDegraded { decode_errors, entries_dropped, watchdog_abandons } => {
            field(out, "decode_errors", decode_errors);
            field(out, "entries_dropped", entries_dropped);
            field(out, "watchdog_abandons", watchdog_abandons);
        }
        EventKind::StoreHit { container, bytes } => {
            field(out, "container", container);
            field(out, "bytes", bytes);
        }
        EventKind::StoreMiss { container } => field(out, "container", container),
        EventKind::StoreEvict { container, bytes } => {
            field(out, "container", container);
            field(out, "bytes", bytes);
        }
        EventKind::StoreReject { container, bytes } => {
            field(out, "container", container);
            field(out, "bytes", bytes);
        }
        EventKind::Attribution { function, cycles } => {
            field(out, "function", u64::from(function));
            for (key, value) in cycles.fields() {
                field(out, key, value);
            }
        }
        EventKind::AlertFire { function, burn_milli }
        | EventKind::AlertResolve { function, burn_milli } => {
            field(out, "function", u64::from(function));
            field(out, "burn_milli", burn_milli);
        }
        EventKind::CoreCrash { core } => field(out, "core", u64::from(core)),
        EventKind::CoreRestore { core, down_cycles } => {
            field(out, "core", u64::from(core));
            field(out, "down_cycles", down_cycles);
        }
        EventKind::ChaosRetry { function, attempt, backoff_cycles } => {
            field(out, "function", u64::from(function));
            field(out, "attempt", u64::from(attempt));
            field(out, "backoff_cycles", backoff_cycles);
        }
        EventKind::ChaosDrop { function, .. } | EventKind::Degraded { function, .. } => {
            field(out, "function", u64::from(function));
        }
        EventKind::BreakerOpen { function, faults } => {
            field(out, "function", u64::from(function));
            field(out, "faults", u64::from(faults));
        }
        EventKind::BreakerClose { function } => field(out, "function", u64::from(function)),
        EventKind::Decision { epoch, function, value, observed, threshold, .. } => {
            field(out, "epoch", epoch);
            field(out, "function", u64::from(function));
            field(out, "value", value);
            field(out, "observed", observed);
            field(out, "threshold", threshold);
        }
    }
}

/// Renders the buffer as a Chrome trace-event JSON document.
pub fn to_chrome_json(buf: &TraceBuffer, opts: &ChromeOptions) -> String {
    let mut out = String::with_capacity(64 + buf.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"schema\":\"");
    out.push_str(CHROME_SCHEMA);
    out.push_str("\",\"dropped_events\":\"");
    out.push_str(&buf.dropped().to_string());
    out.push_str("\"},\"traceEvents\":[");

    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Process + thread name metadata, tracks in tid order.
    sep(&mut out);
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(opts.process_name)
    ));
    let tracks: std::collections::BTreeSet<Track> = buf.iter().map(|e| e.track).collect();
    for track in tracks {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            track.tid(),
            escape(&track.label())
        ));
    }

    for ev in buf.iter() {
        sep(&mut out);
        let name = match ev.kind {
            EventKind::Invocation { function, .. } => opts
                .function_names
                .get(function as usize)
                .map_or_else(|| format!("fn{function}"), |n| escape(n)),
            kind => kind.name().to_string(),
        };
        out.push_str("{\"name\":\"");
        out.push_str(&name);
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.kind.category());
        out.push_str("\",\"ph\":\"");
        if ev.kind.is_span() {
            out.push('X');
            out.push_str(&format!("\",\"ts\":{},\"dur\":{}", ev.ts, ev.dur));
        } else {
            out.push('i');
            out.push_str(&format!("\",\"s\":\"t\",\"ts\":{}", ev.ts));
        }
        out.push_str(&format!(",\"pid\":0,\"tid\":{},\"args\":{{", ev.track.tid()));
        push_args(&mut out, &ev.kind);
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventSink, Phase};

    fn sample() -> TraceBuffer {
        let mut buf = TraceBuffer::new(16);
        buf.record(Event {
            ts: 5,
            dur: 0,
            track: Track::Cluster,
            kind: EventKind::Arrival { function: 2 },
        });
        buf.record(Event {
            ts: 9,
            dur: 40,
            track: Track::Core(0),
            kind: EventKind::Invocation { function: 2, invocation: 1 },
        });
        buf.record(Event {
            ts: 9,
            dur: 12,
            track: Track::Core(0),
            kind: EventKind::TopDown { phase: Phase::FetchBound, cycles: 12 },
        });
        buf.record(Event {
            ts: 49,
            dur: 0,
            track: Track::Store,
            kind: EventKind::StoreEvict { container: 7, bytes: 321 },
        });
        buf
    }

    #[test]
    fn export_is_deterministic_and_tagged() {
        let buf = sample();
        let opts = ChromeOptions { process_name: "ignite", function_names: &[] };
        let a = to_chrome_json(&buf, &opts);
        let b = to_chrome_json(&buf, &opts);
        assert_eq!(a, b);
        assert!(a.contains(CHROME_SCHEMA));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"name\":\"arrival\""));
        assert!(a.contains("\"name\":\"fetch-bound\""));
        assert!(a.contains("\"dur\":40"));
    }

    #[test]
    fn function_names_label_invocation_spans() {
        let buf = sample();
        let names = vec!["aes".to_string(), "gzip".to_string(), "json\"esc".to_string()];
        let out =
            to_chrome_json(&buf, &ChromeOptions { process_name: "x", function_names: &names });
        assert!(out.contains("\"name\":\"json\\\"esc\""));
        let bare = to_chrome_json(&buf, &ChromeOptions { process_name: "x", function_names: &[] });
        assert!(bare.contains("\"name\":\"fn2\""));
    }

    #[test]
    fn every_present_track_gets_a_thread_name() {
        let out =
            to_chrome_json(&sample(), &ChromeOptions { process_name: "x", function_names: &[] });
        assert!(out.contains("\"args\":{\"name\":\"queue\"}"));
        assert!(out.contains("\"args\":{\"name\":\"store\"}"));
        assert!(out.contains("\"args\":{\"name\":\"core0\"}"));
    }
}
