//! Chrome trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by Perfetto and
//! `chrome://tracing`: one process (`pid`) per machine, `X` complete
//! events for the marshal/unmarshal/invoke phase spans and handler
//! executions, and `b`/`e` async events — linked by the RMI request id
//! — spanning `RmiSend → RmiReturn`, so one remote call reads as a
//! single arc across machine tracks.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Only `b` events with a matching `e` are emitted (one-way sends
//! become async instants), so begin/end pairs are always balanced and
//! the file is guaranteed to load.

use std::collections::{BTreeSet, HashSet};

use crate::trace::{walk, TraceEvent, TraceKind};

/// Export `events` as a Chrome trace-event JSON document.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    // Request ids that complete (have an RmiReturn): only those get a
    // balanced b/e async pair.
    let returns = events.iter().filter(|e| matches!(e.kind, TraceKind::RmiReturn { .. }));
    let returned: HashSet<u64> = returns.filter_map(|e| e.kind.req()).collect();

    let machines: BTreeSet<u16> = events.iter().map(|e| e.machine).collect();
    let mut records: Vec<String> = machines
        .iter()
        .map(|m| {
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{m},"tid":0,"args":{{"name":"machine {m}"}}}}"#
            )
        })
        .collect();

    for (e, t0) in walk(events) {
        let (pid, ts) = (e.machine, e.t_us);
        records.push(match e.kind {
            TraceKind::RmiSend { req, site, to, bytes, .. } if returned.contains(&req) => format!(
                r#"{{"name":"rmi site {site}","cat":"rmi","ph":"b","id":{req},"pid":{pid},"tid":0,"ts":{ts},"args":{{"req":{req},"to":{to},"bytes":{bytes}}}}}"#
            ),
            TraceKind::RmiSend { req, site, to, bytes, oneway } => format!(
                r#"{{"name":"rmi site {site}{}","ph":"i","s":"p","pid":{pid},"tid":0,"ts":{ts},"args":{{"req":{req},"to":{to},"bytes":{bytes}}}}}"#,
                if oneway { " (one-way)" } else { " (no return)" }
            ),
            TraceKind::RmiReturn { req, site, reply_bytes, .. } => format!(
                r#"{{"name":"rmi site {site}","cat":"rmi","ph":"e","id":{req},"pid":{pid},"tid":0,"ts":{ts},"args":{{"req":{req},"reply_bytes":{reply_bytes}}}}}"#
            ),
            TraceKind::Handle { req, site, us, reused } => format!(
                r#"{{"name":"handle site {site}","cat":"rmi","ph":"X","pid":{pid},"tid":0,"ts":{},"dur":{us},"args":{{"req":{req},"reused":{reused}}}}}"#,
                ts.saturating_sub(us)
            ),
            TraceKind::LocalRpc { req, site, us } => format!(
                r#"{{"name":"local rpc site {site}","cat":"rmi","ph":"X","pid":{pid},"tid":0,"ts":{},"dur":{us},"args":{{"req":{req}}}}}"#,
                ts.saturating_sub(us)
            ),
            TraceKind::PhaseBegin { .. } => continue,
            TraceKind::PhaseEnd { phase, req, site } => {
                let Some(t0) = t0 else { continue };
                format!(
                    r#"{{"name":"{}","cat":"phase","ph":"X","pid":{pid},"tid":0,"ts":{t0},"dur":{},"args":{{"req":{req},"site":{site}}}}}"#,
                    phase.name(),
                    ts.saturating_sub(t0)
                )
            }
            TraceKind::NewRemote { class, from } => format!(
                r#"{{"name":"export class {class}","ph":"i","s":"t","pid":{pid},"tid":0,"ts":{ts},"args":{{"for":{from}}}}}"#
            ),
            // Stamped when the collection ended: the span reaches back over the pause.
            TraceKind::Gc { freed, live, pause_us } => format!(
                r#"{{"name":"gc","cat":"gc","ph":"X","pid":{pid},"tid":0,"ts":{},"dur":{pause_us},"args":{{"freed":{freed},"live":{live}}}}}"#,
                ts.saturating_sub(pause_us)
            ),
        });
    }
    format!(r#"{{"displayTimeUnit":"ms","traceEvents":[{}]}}"#, records.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Phase;

    fn ev(t_us: u64, seq: u64, machine: u16, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_us, seq, machine, kind }
    }

    fn round_trip() -> Vec<TraceEvent> {
        vec![
            ev(5, 0, 0, TraceKind::PhaseBegin { phase: Phase::Marshal, req: 1, site: 3 }),
            ev(8, 1, 0, TraceKind::PhaseEnd { phase: Phase::Marshal, req: 1, site: 3 }),
            ev(10, 2, 0, TraceKind::RmiSend { req: 1, site: 3, to: 1, bytes: 40, oneway: false }),
            ev(25, 3, 1, TraceKind::Handle { req: 1, site: 3, us: 9, reused: 0 }),
            ev(40, 4, 0, TraceKind::RmiReturn { req: 1, site: 3, us: 30, reply_bytes: 8 }),
        ]
    }

    #[test]
    fn async_pair_links_send_and_return() {
        let json = to_chrome_trace(&round_trip());
        assert_eq!(json.matches(r#""ph":"b""#).count(), 1);
        assert_eq!(json.matches(r#""ph":"e""#).count(), 1);
        assert!(json.contains(r#""id":1"#));
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""name":"machine 1""#));
    }

    #[test]
    fn phases_become_complete_events() {
        let json = to_chrome_trace(&round_trip());
        assert!(json
            .contains(r#""name":"marshal","cat":"phase","ph":"X","pid":0,"tid":0,"ts":5,"dur":3"#));
        // handler execution: complete event starting at 25-9=16
        assert!(json.contains(
            r#""name":"handle site 3","cat":"rmi","ph":"X","pid":1,"tid":0,"ts":16,"dur":9"#
        ));
    }

    #[test]
    fn oneway_send_is_instant_not_unbalanced_begin() {
        let events = vec![ev(
            10,
            0,
            0,
            TraceKind::RmiSend { req: 2, site: 4, to: 1, bytes: 8, oneway: true },
        )];
        let json = to_chrome_trace(&events);
        assert_eq!(json.matches(r#""ph":"b""#).count(), 0, "no unbalanced begin");
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains("one-way"));
    }

    #[test]
    fn empty_trace_is_valid_document() {
        let json = to_chrome_trace(&[]);
        assert_eq!(json, r#"{"displayTimeUnit":"ms","traceEvents":[]}"#);
    }
}
