//! Causal RMI event tracing.
//!
//! An optional per-run event log of every marshal, wire crossing,
//! unmarshal, invoke and collection. Every RMI carries a cluster-unique
//! request id, so `RmiSend → Handle → RmiReturn` of one call link
//! across machines, and the explicit [`Phase`] spans attribute time to
//! the marshal / queue / unmarshal / invoke stages of the pipeline.
//!
//! Renderers: [`render_timeline`] (text) and
//! [`crate::chrome::to_chrome_trace`] (Perfetto-loadable).

/// One stage of the RMI pipeline (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Serializing arguments (caller) or the return value (server).
    Marshal,
    /// From the drain loop taking the request to its handler starting:
    /// zero-length when the draining thread serves it, the start of a new
    /// thread for a one-way request.
    Queue,
    /// Deserializing arguments (server) or the return value (caller).
    Unmarshal,
    /// Executing the user method on the serving machine.
    Invoke,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Marshal => "marshal",
            Phase::Queue => "queue",
            Phase::Unmarshal => "unmarshal",
            Phase::Invoke => "invoke",
        }
    }
}

/// What happened. RMI events carry `req`, the cluster-unique request
/// id minted by the calling machine (machine id in the top 16 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A request left this machine for `to`.
    RmiSend { req: u64, site: u32, to: u16, bytes: u64, oneway: bool },
    /// The reply for `site` arrived back; `us` is the caller-observed
    /// round-trip time.
    RmiReturn { req: u64, site: u32, us: u64, reply_bytes: u64 },
    /// A request was executed on this (serving) machine.
    Handle { req: u64, site: u32, us: u64, reused: u64 },
    /// A same-machine RMI executed with cloning semantics.
    LocalRpc { req: u64, site: u32, us: u64 },
    /// A pipeline phase started on this machine.
    PhaseBegin { phase: Phase, req: u64, site: u32 },
    /// A pipeline phase ended on this machine.
    PhaseEnd { phase: Phase, req: u64, site: u32 },
    /// A remote object was instantiated here on behalf of `from`.
    NewRemote { class: u32, from: u16 },
    /// A garbage collection ended here, `pause_us` after it began: that long
    /// the machine lock was held and nothing else ran on this machine.
    Gc { freed: u64, live: u64, pause_us: u64 },
}

impl TraceKind {
    /// The request id linking this event to its RMI, if it has one.
    pub fn req(&self) -> Option<u64> {
        match *self {
            TraceKind::RmiSend { req, .. }
            | TraceKind::RmiReturn { req, .. }
            | TraceKind::Handle { req, .. }
            | TraceKind::LocalRpc { req, .. }
            | TraceKind::PhaseBegin { req, .. }
            | TraceKind::PhaseEnd { req, .. } => Some(req),
            TraceKind::NewRemote { .. } | TraceKind::Gc { .. } => None,
        }
    }
}

/// One timeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since run start.
    pub t_us: u64,
    /// Recording order (cluster-global, assigned under the trace lock):
    /// breaks same-microsecond ties deterministically.
    pub seq: u64,
    /// Machine the event was observed on.
    pub machine: u16,
    pub kind: TraceKind,
}

/// Render a run trace as a per-machine text timeline. Sorting includes
/// the sequence number so same-microsecond events on one machine render
/// in a stable (recording) order.
pub fn render_timeline(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.t_us, e.machine, e.seq));
    let mut s = String::new();
    for e in sorted {
        let _ = write!(s, "{:>10.3} ms  m{} ", e.t_us as f64 / 1e3, e.machine);
        let _ = match e.kind {
            TraceKind::RmiSend { req, site, to, bytes, oneway } => writeln!(
                s,
                "send   site {site} -> m{to} (req {req}, {bytes} B{})",
                if oneway { ", one-way" } else { "" }
            ),
            TraceKind::RmiReturn { req, site, us, reply_bytes } => {
                writeln!(s, "return site {site} (req {req}, {us} us, {reply_bytes} B reply)")
            }
            TraceKind::Handle { req, site, us, reused } => {
                writeln!(s, "handle site {site} (req {req}, {us} us, {reused} reused)")
            }
            TraceKind::LocalRpc { req, site, us } => {
                writeln!(s, "local  site {site} (req {req}, {us} us)")
            }
            TraceKind::PhaseBegin { phase, req, site } => {
                writeln!(s, "begin  {} site {site} (req {req})", phase.name())
            }
            TraceKind::PhaseEnd { phase, req, site } => {
                writeln!(s, "end    {} site {site} (req {req})", phase.name())
            }
            TraceKind::NewRemote { class, from } => {
                writeln!(s, "export class {class} (for m{from})")
            }
            TraceKind::Gc { freed, live, pause_us } => {
                writeln!(s, "gc     freed {freed}, live {live} ({pause_us} us)")
            }
        };
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                t_us: 10,
                seq: 0,
                machine: 0,
                kind: TraceKind::RmiSend { req: 1, site: 3, to: 1, bytes: 40, oneway: false },
            },
            TraceEvent {
                t_us: 25,
                seq: 1,
                machine: 1,
                kind: TraceKind::Handle { req: 1, site: 3, us: 9, reused: 2 },
            },
            TraceEvent {
                t_us: 40,
                seq: 2,
                machine: 0,
                kind: TraceKind::RmiReturn { req: 1, site: 3, us: 30, reply_bytes: 8 },
            },
        ]
    }

    #[test]
    fn timeline_renders_in_time_order() {
        let mut ev = sample();
        ev.reverse();
        let text = render_timeline(&ev);
        let send = text.find("send").unwrap();
        let handle = text.find("handle").unwrap();
        let ret = text.find("return").unwrap();
        assert!(send < handle && handle < ret);
    }

    #[test]
    fn same_microsecond_events_sort_by_seq() {
        let mk = |seq| TraceEvent {
            t_us: 5,
            seq,
            machine: 0,
            kind: TraceKind::LocalRpc { req: seq, site: seq as u32, us: 1 },
        };
        // recorded 0,1,2 but supplied shuffled
        let ev = vec![mk(2), mk(0), mk(1)];
        let text = render_timeline(&ev);
        let p0 = text.find("site 0").unwrap();
        let p1 = text.find("site 1").unwrap();
        let p2 = text.find("site 2").unwrap();
        assert!(p0 < p1 && p1 < p2, "seq must break same-microsecond ties:\n{text}");
    }

    #[test]
    fn phase_events_render() {
        let ev = vec![
            TraceEvent {
                t_us: 1,
                seq: 0,
                machine: 0,
                kind: TraceKind::PhaseBegin { phase: Phase::Marshal, req: 9, site: 4 },
            },
            TraceEvent {
                t_us: 3,
                seq: 1,
                machine: 0,
                kind: TraceKind::PhaseEnd { phase: Phase::Marshal, req: 9, site: 4 },
            },
        ];
        let text = render_timeline(&ev);
        assert!(text.contains("begin  marshal") && text.contains("end    marshal"));
    }

    #[test]
    fn empty_trace() {
        assert_eq!(render_timeline(&[]), "");
    }

    #[test]
    fn req_accessor() {
        assert_eq!(sample()[0].kind.req(), Some(1));
        assert_eq!(TraceKind::Gc { freed: 0, live: 0, pause_us: 0 }.req(), None);
    }
}
