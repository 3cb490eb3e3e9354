//! Per-phase time attribution.
//!
//! Folds a causal trace into per-machine totals for each pipeline
//! phase, splitting *real* time (marshal/unmarshal/invoke spans,
//! measured on the host) from *modeled* time (wire transit priced by
//! the cost model — the simulated cluster delivers messages instantly,
//! so wire time only exists in the model).

use std::collections::BTreeMap;

use crate::trace::{Phase, TraceEvent, TraceKind};

/// Per-machine phase totals, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Real: marshal time (args on the caller, replies on the server).
    pub marshal_us: u64,
    /// Real: server-side wait from drain to handler start of requests
    /// handled here.
    pub queue_us: u64,
    /// Real: unmarshal time (args on the server, returns on the caller).
    pub unmarshal_us: u64,
    /// Real: served user-method execution time.
    pub invoke_us: u64,
    /// Modeled: wire transit of requests + replies sent by this
    /// machine, priced by the cost model.
    pub wire_modeled_us: u64,
    /// Measured: wall-clock in-flight time of packets *received* by
    /// this machine, as observed by the transport backend. Zero on the
    /// in-process channel backend; the TCP backend fills it in, putting
    /// a real network number next to the modeled one.
    pub wire_measured_us: u64,
    /// RMIs sent from this machine (remote only).
    pub rmi_sent: u64,
    /// Requests served on this machine.
    pub rmi_handled: u64,
}

impl PhaseTotals {
    pub fn real_us(&self) -> u64 {
        self.marshal_us + self.unmarshal_us + self.invoke_us
    }
}

/// Attribute trace time to phases, per machine. `message_cost_ns`
/// prices one message of `n` payload bytes (the Myrinet cost model's
/// per-message function); it is applied to request and reply payloads
/// to produce the modeled wire column.
pub fn phase_report(
    events: &[TraceEvent],
    message_cost_ns: impl Fn(u64) -> u64,
) -> BTreeMap<u16, PhaseTotals> {
    let mut totals: BTreeMap<u16, PhaseTotals> = BTreeMap::new();
    // Open phase spans: (machine, req, phase) -> begin t_us.
    let mut open: std::collections::HashMap<(u16, u64, Phase), u64> =
        std::collections::HashMap::new();
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.t_us, e.machine, e.seq));

    for e in sorted {
        let t = totals.entry(e.machine).or_default();
        match e.kind {
            TraceKind::PhaseBegin { phase, req, .. } => {
                open.insert((e.machine, req, phase), e.t_us);
            }
            TraceKind::PhaseEnd { phase, req, .. } => {
                if let Some(t0) = open.remove(&(e.machine, req, phase)) {
                    let dur = e.t_us.saturating_sub(t0);
                    match phase {
                        Phase::Marshal => t.marshal_us += dur,
                        Phase::Queue => t.queue_us += dur,
                        Phase::Unmarshal => t.unmarshal_us += dur,
                        Phase::Invoke => t.invoke_us += dur,
                    }
                }
            }
            TraceKind::RmiSend { bytes, .. } => {
                t.rmi_sent += 1;
                t.wire_modeled_us += message_cost_ns(bytes) / 1000;
            }
            TraceKind::RmiReturn { reply_bytes, .. } => {
                // The reply crossed the wire from the serving machine;
                // attribute its modeled cost to the caller's round trip
                // so one machine's row describes its own RMIs.
                t.wire_modeled_us += message_cost_ns(reply_bytes) / 1000;
            }
            TraceKind::Handle { .. } => t.rmi_handled += 1,
            _ => {}
        }
    }
    totals
}

/// Merge transport-measured wire time (nanoseconds indexed by receiving
/// machine, from `RunOutcome::measured_wire_ns`) into a phase report.
/// Machines that only received (never traced a span) get a row too.
pub fn attach_measured_wire(totals: &mut BTreeMap<u16, PhaseTotals>, per_machine_ns: &[u64]) {
    for (machine, &ns) in per_machine_ns.iter().enumerate() {
        if ns == 0 {
            continue;
        }
        totals.entry(machine as u16).or_default().wire_measured_us += ns / 1000;
    }
}

/// Render the attribution as an aligned text table with a cluster
/// total row and a real-vs-modeled split.
pub fn render_phase_report(totals: &BTreeMap<u16, PhaseTotals>) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>8} {:>10} {:>10} {:>12} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "machine",
        "marshal",
        "queue",
        "unmarshal",
        "invoke",
        "wire(model)",
        "wire(meas)",
        "sent",
        "handled"
    );
    let mut sum = PhaseTotals::default();
    for (m, t) in totals {
        let _ = writeln!(
            s,
            "{:>8} {:>8} us {:>8} us {:>10} us {:>8} us {:>10} us {:>10} us {:>8} {:>8}",
            format!("m{m}"),
            t.marshal_us,
            t.queue_us,
            t.unmarshal_us,
            t.invoke_us,
            t.wire_modeled_us,
            t.wire_measured_us,
            t.rmi_sent,
            t.rmi_handled
        );
        sum.marshal_us += t.marshal_us;
        sum.queue_us += t.queue_us;
        sum.unmarshal_us += t.unmarshal_us;
        sum.invoke_us += t.invoke_us;
        sum.wire_modeled_us += t.wire_modeled_us;
        sum.wire_measured_us += t.wire_measured_us;
        sum.rmi_sent += t.rmi_sent;
        sum.rmi_handled += t.rmi_handled;
    }
    let _ = writeln!(
        s,
        "{:>8} {:>8} us {:>8} us {:>10} us {:>8} us {:>10} us {:>10} us {:>8} {:>8}",
        "total",
        sum.marshal_us,
        sum.queue_us,
        sum.unmarshal_us,
        sum.invoke_us,
        sum.wire_modeled_us,
        sum.wire_measured_us,
        sum.rmi_sent,
        sum.rmi_handled
    );
    let _ = write!(
        s,
        "real (measured) {} us = marshal + unmarshal + invoke; modeled (cost model) {} us = wire",
        sum.real_us(),
        sum.wire_modeled_us
    );
    if sum.queue_us > 0 {
        let _ = write!(s, "; queued (waiting, not work) {} us", sum.queue_us);
    }
    if sum.wire_measured_us > 0 {
        let _ = write!(s, "; transport-measured wire {} us", sum.wire_measured_us);
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(t_us: u64, seq: u64, machine: u16, kind: TraceKind) -> TraceEvent {
        TraceEvent { t_us, seq, machine, kind }
    }

    #[test]
    fn spans_fold_into_phase_totals() {
        let events = vec![
            ev(0, 0, 0, TraceKind::PhaseBegin { phase: Phase::Marshal, req: 1, site: 3 }),
            ev(7, 1, 0, TraceKind::PhaseEnd { phase: Phase::Marshal, req: 1, site: 3 }),
            ev(8, 2, 0, TraceKind::RmiSend { req: 1, site: 3, to: 1, bytes: 1000, oneway: false }),
            ev(10, 3, 1, TraceKind::PhaseBegin { phase: Phase::Unmarshal, req: 1, site: 3 }),
            ev(14, 4, 1, TraceKind::PhaseEnd { phase: Phase::Unmarshal, req: 1, site: 3 }),
            ev(14, 5, 1, TraceKind::PhaseBegin { phase: Phase::Invoke, req: 1, site: 3 }),
            ev(24, 6, 1, TraceKind::PhaseEnd { phase: Phase::Invoke, req: 1, site: 3 }),
            ev(25, 7, 1, TraceKind::Handle { req: 1, site: 3, us: 15, reused: 0 }),
            ev(30, 8, 0, TraceKind::RmiReturn { req: 1, site: 3, us: 22, reply_bytes: 500 }),
        ];
        // price: 2 ns per byte
        let rep = phase_report(&events, |b| b * 2);
        let m0 = rep[&0];
        assert_eq!(m0.marshal_us, 7);
        assert_eq!(m0.rmi_sent, 1);
        assert_eq!(m0.wire_modeled_us, (1000 * 2 + 500 * 2) / 1000);
        let m1 = rep[&1];
        assert_eq!(m1.unmarshal_us, 4);
        assert_eq!(m1.invoke_us, 10);
        assert_eq!(m1.rmi_handled, 1);

        let text = render_phase_report(&rep);
        assert!(text.contains("m0") && text.contains("m1") && text.contains("total"));
        assert!(text.contains("real (measured) 21 us"));
        assert!(
            !text.contains("transport-measured"),
            "measured wire is only reported when a backend recorded it"
        );
    }

    #[test]
    fn measured_wire_attaches_per_receiving_machine() {
        let mut rep: BTreeMap<u16, PhaseTotals> = BTreeMap::new();
        rep.insert(0, PhaseTotals { rmi_sent: 1, ..Default::default() });
        attach_measured_wire(&mut rep, &[0, 42_000, 7_500]);
        assert_eq!(rep[&0].wire_measured_us, 0);
        assert_eq!(rep[&1].wire_measured_us, 42);
        assert_eq!(rep[&2].wire_measured_us, 7, "machine 2 gains a row even without spans");
        let text = render_phase_report(&rep);
        assert!(text.contains("wire(meas)"));
        assert!(text.contains("transport-measured wire 49 us"));
    }

    #[test]
    fn queue_spans_fold_into_their_own_column() {
        let events = vec![
            ev(2, 0, 1, TraceKind::PhaseBegin { phase: Phase::Queue, req: 1, site: 3 }),
            ev(9, 1, 1, TraceKind::PhaseEnd { phase: Phase::Queue, req: 1, site: 3 }),
            ev(9, 2, 1, TraceKind::PhaseBegin { phase: Phase::Invoke, req: 1, site: 3 }),
            ev(12, 3, 1, TraceKind::PhaseEnd { phase: Phase::Invoke, req: 1, site: 3 }),
        ];
        let rep = phase_report(&events, |_| 0);
        let m1 = rep[&1];
        assert_eq!(m1.queue_us, 7);
        assert_eq!(m1.invoke_us, 3);
        // Queueing is waiting, not work: excluded from the real-time sum.
        assert_eq!(m1.real_us(), 3);
        let text = render_phase_report(&rep);
        assert!(text.contains("queue"));
        assert!(text.contains("queued (waiting, not work) 7 us"));
    }

    #[test]
    fn unmatched_begin_is_ignored() {
        let events =
            vec![ev(0, 0, 0, TraceKind::PhaseBegin { phase: Phase::Invoke, req: 1, site: 0 })];
        let rep = phase_report(&events, |_| 0);
        assert_eq!(rep[&0].invoke_us, 0);
    }
}
