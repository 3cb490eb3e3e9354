//! Attribution of a traced repetition: one root span per RMI (the caller's
//! own clock around the call, or for `apps` the round trip the program's
//! trace reports), the program's existing phase spans under it, and the
//! root's self time — what no phase span covers — as `wire_rtt`.

use std::collections::HashMap;

use corm::{phase_report, TraceEvent};

/// Phase time summed over `rmis` root spans, µs.
#[derive(Clone, Copy, Default)]
pub struct PhaseSums {
    pub rmis: u64,
    pub root_us: f64,
    pub marshal_us: f64,
    pub queue_us: f64,
    pub unmarshal_us: f64,
    pub invoke_us: f64,
}

impl PhaseSums {
    pub fn add(&mut self, o: PhaseSums) {
        self.rmis += o.rmis;
        self.root_us += o.root_us;
        self.marshal_us += o.marshal_us;
        self.queue_us += o.queue_us;
        self.unmarshal_us += o.unmarshal_us;
        self.invoke_us += o.invoke_us;
    }

    /// The root spans' self time: hops, handoffs and everything else the
    /// program's phase spans do not cover.
    pub fn wire_rtt_us(&self) -> f64 {
        self.root_us - self.marshal_us - self.queue_us - self.unmarshal_us - self.invoke_us
    }
}

/// Fold the phase spans of the RMIs in `roots` (request id → caller latency,
/// ns) with the program's own `phase_report`. Spans of other requests — set-up,
/// warm-up, local RPCs — are left out.
pub fn attribute(events: &[TraceEvent], roots: &HashMap<u64, u64>) -> PhaseSums {
    let ours: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.kind.req().is_some_and(|r| roots.contains_key(&r)))
        .copied()
        .collect();
    let mut sums = PhaseSums {
        rmis: roots.len() as u64,
        root_us: roots.values().sum::<u64>() as f64 / 1e3,
        ..PhaseSums::default()
    };
    for t in phase_report(&ours, |_| 0).values() {
        sums.marshal_us += t.marshal_us as f64;
        sums.queue_us += t.queue_us as f64;
        sums.unmarshal_us += t.unmarshal_us as f64;
        sums.invoke_us += t.invoke_us as f64;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm::{Phase, TraceKind};

    #[test]
    fn phases_of_rooted_requests_only_and_self_time_closes() {
        let ev = |t_us, machine, kind| TraceEvent { t_us, seq: t_us, machine, kind };
        let span = |req, phase, machine, t0, t1| {
            [
                ev(t0, machine, TraceKind::PhaseBegin { phase, req, site: 1 }),
                ev(t1, machine, TraceKind::PhaseEnd { phase, req, site: 1 }),
            ]
        };
        let mut events = Vec::new();
        events.extend(span(7, Phase::Marshal, 0, 0, 2));
        events.extend(span(7, Phase::Queue, 1, 3, 4));
        events.extend(span(7, Phase::Unmarshal, 1, 4, 6));
        events.extend(span(7, Phase::Invoke, 1, 6, 10));
        events.extend(span(8, Phase::Marshal, 0, 20, 30)); // not a root: ignored
        let roots = HashMap::from([(7u64, 15_000u64)]);
        let s = attribute(&events, &roots);
        assert_eq!(s.rmis, 1);
        assert_eq!((s.marshal_us, s.queue_us, s.unmarshal_us, s.invoke_us), (2.0, 1.0, 2.0, 4.0));
        assert_eq!(s.root_us, 15.0);
        assert_eq!(s.wire_rtt_us(), 6.0);
    }
}
