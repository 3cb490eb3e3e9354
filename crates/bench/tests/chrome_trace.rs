//! Chrome/Perfetto exporter coverage (DESIGN §7.2): the
//! `--trace-json` document produced by [`corm::to_chrome_trace`] must
//! parse with the workspace's hand-rolled `corm_bench::json` parser,
//! its complete-event spans must nest cleanly within each machine
//! track, and the async begin/end pairs must link one request id across
//! the sending and handling machines.

use corm::{to_chrome_trace, OptConfig, RunOptions};
use corm_apps::LINKED_LIST;
use corm_bench::json::{self, Json};

/// Run the linked-list app quick-scale with tracing on and export it.
fn traced_doc() -> Json {
    let compiled = LINKED_LIST.compile(OptConfig::ALL);
    let out = corm::run(
        &compiled,
        RunOptions {
            machines: LINKED_LIST.machines,
            args: LINKED_LIST.quick_args.to_vec(),
            trace: true,
            ..Default::default()
        },
    );
    assert!(out.error.is_none(), "traced run failed: {:?}", out.error);
    assert!(!out.trace.is_empty(), "tracing produced no events");
    json::parse(&to_chrome_trace(&out.trace)).expect("chrome trace must be valid JSON")
}

fn events(doc: &Json) -> &[Json] {
    doc.get("traceEvents").as_arr().expect("traceEvents[]")
}

#[test]
fn trace_json_parses_with_the_bench_parser() {
    let doc = traced_doc();
    assert_eq!(doc.get("displayTimeUnit").as_str(), Some("ms"));
    let evs = events(&doc);
    assert!(!evs.is_empty());
    for (i, e) in evs.iter().enumerate() {
        let ph = e.get("ph").as_str().unwrap_or_else(|| panic!("event {i}: missing ph"));
        assert!(matches!(ph, "M" | "X" | "b" | "e" | "i"), "event {i}: unexpected phase {ph:?}");
        if ph != "M" {
            assert!(e.get("ts").as_u64().is_some(), "event {i}: missing ts");
        }
        assert!(e.get("pid").as_u64().is_some(), "event {i}: missing pid");
    }
    // The metadata names every machine track.
    let tracks: Vec<u64> = evs
        .iter()
        .filter(|e| e.get("ph").as_str() == Some("M"))
        .filter_map(|e| e.get("pid").as_u64())
        .collect();
    assert_eq!(tracks.len(), LINKED_LIST.machines, "one process_name per machine");
}

/// Complete events (`ph: "X"`) on one machine track must either nest or
/// be disjoint — a marshal span half-overlapping an invoke span would
/// render as garbage in Perfetto and indicates clock or pairing bugs.
#[test]
fn complete_event_spans_nest_within_each_track() {
    let doc = traced_doc();
    let mut per_track: std::collections::BTreeMap<u64, Vec<(u64, u64, String)>> =
        std::collections::BTreeMap::new();
    for e in events(&doc) {
        if e.get("ph").as_str() != Some("X") {
            continue;
        }
        let ts = e.get("ts").as_u64().expect("X event ts");
        let dur = e.get("dur").as_u64().expect("X event dur");
        let name = e.get("name").as_str().unwrap_or("?").to_string();
        per_track.entry(e.get("pid").as_u64().unwrap()).or_default().push((ts, ts + dur, name));
    }
    assert!(!per_track.is_empty(), "expected phase/handler complete events");
    for (pid, mut spans) in per_track {
        // Sort by start, longest first on ties, then run a containment
        // stack: every span either nests inside the open one or starts
        // after it ends.
        spans.sort_by_key(|&(s, e, _)| (s, std::cmp::Reverse(e)));
        let mut stack: Vec<(u64, u64, String)> = Vec::new();
        for (s, e, name) in spans {
            while let Some(top) = stack.last() {
                if s >= top.1 {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                assert!(
                    e <= top.1,
                    "machine {pid}: span {name:?} [{s},{e}) partially overlaps {:?} [{},{})",
                    top.2,
                    top.0,
                    top.1
                );
            }
            stack.push((s, e, name));
        }
    }
}

/// The async `b`/`e` pair of a remote call carries the request id, and
/// the same id shows up in the handler's complete event on the *other*
/// machine — the linkage that makes one RMI read as a single arc across
/// machine tracks.
#[test]
fn request_ids_link_across_machines() {
    let doc = traced_doc();
    let evs = events(&doc);
    let begins: Vec<&Json> = evs.iter().filter(|e| e.get("ph").as_str() == Some("b")).collect();
    let ends: Vec<&Json> = evs.iter().filter(|e| e.get("ph").as_str() == Some("e")).collect();
    assert!(!begins.is_empty(), "expected completed remote calls");
    assert_eq!(begins.len(), ends.len(), "begin/end async events must balance");
    let end_ids: std::collections::HashSet<u64> =
        ends.iter().map(|e| e.get("id").as_u64().expect("e id")).collect();
    let mut cross_machine = 0usize;
    for b in &begins {
        let id = b.get("id").as_u64().expect("b id");
        assert!(end_ids.contains(&id), "begin id {id} has no matching end");
        let sender = b.get("pid").as_u64().unwrap();
        // A handler complete event with args.req == id on another pid.
        if evs.iter().any(|e| {
            e.get("ph").as_str() == Some("X")
                && e.get("args").get("req").as_u64() == Some(id)
                && e.get("pid").as_u64() != Some(sender)
        }) {
            cross_machine += 1;
        }
    }
    assert!(cross_machine > 0, "no request id linked a sender track to a remote handler track");
}
