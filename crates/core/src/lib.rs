//! # corm — Compiler Optimized RMI
//!
//! A from-scratch reproduction of *Compiler Optimized Remote Method
//! Invocation* (Veldema & Philippsen, IEEE CLUSTER 2003) in Rust.
//!
//! The crate is a facade over the workspace:
//!
//! * [`corm_ir`] — the MiniParty language front end (lexer → parser →
//!   type checker → CFG → SSA);
//! * [`corm_analysis`] — the paper's heap analysis with (logical,
//!   physical) allocation tuples, cycle-freedom analysis and RMI escape
//!   analysis;
//! * [`corm_codegen`] — call-site-specific marshalers and class-specific
//!   serializers, both programs for one engine;
//! * [`corm_heap`] / [`corm_wire`] / [`corm_net`] — the managed heap, the
//!   wire protocol and the simulated Myrinet cluster;
//! * [`corm_vm`] — the interpreter with the full RMI dispatch path.
//!
//! ## Quickstart
//!
//! ```
//! use corm::{compile, OptConfig, RunOptions};
//!
//! let src = r#"
//!     remote class Echo {
//!         int twice(int x) { return x + x; }
//!     }
//!     class Main {
//!         static void main() {
//!             Echo e = new Echo() @ 1;       // place on machine 1
//!             System.println(Str.fromLong(e.twice(21)));
//!         }
//!     }
//! "#;
//! let compiled = compile(src, OptConfig::ALL).unwrap();
//! let outcome = corm::run(&compiled, RunOptions { machines: 2, ..Default::default() });
//! assert_eq!(outcome.output.trim(), "42");
//! assert!(outcome.error.is_none());
//! ```

use std::sync::Arc;

pub mod explain;

pub use corm_analysis::{
    AnalysisOptions, AnalysisResult, Decision, Finding, RemoteSiteInfo, SiteProvenance,
};
pub use corm_codegen::AUDIT_ERROR_PREFIX;
pub use corm_codegen::{describe_plan, EngineMode, MarshalPlan, OptConfig, Plans};
pub use corm_heap::{deep_equal_across, structure_digest, HeapStats, Value};
pub use corm_ir::{CompileError, Module};
pub use corm_net::{CostModel, LossSpec, TransportKind};
pub use corm_obs::{
    attach_measured_wire, phase_report, recorder::esc, render_phase_report, render_prometheus,
    render_timeline_json, HistSnapshot, MachineSnapshot, MetricsRegistry, MetricsSnapshot,
    PhaseTotals, SiteSnapshot, TimelineDoc, TimelineSample, DEFAULT_TIMELINE_INTERVAL_US,
    TIMELINE_SCHEMA_VERSION,
};
pub use corm_vm::pool::{BufferPool, Lane, PER_KEY_CAP};
pub use corm_vm::serve::{serve_with, ArrivalSchedule, ServeOptions, ServeReport};
pub use corm_vm::{
    render_flight_json, render_timeline, to_chrome_trace, write_flight_artifact, AuditSnapshot,
    Cluster, FaultSpec, FlightDump, FlightEvent, FlightKind, Phase, RunOptions, RunOutcome,
    TraceEvent, TraceKind, VmError, DEFAULT_FLIGHT_CAPACITY,
};
pub use corm_wire::{StatsSnapshot, COUNTERS};
pub use explain::{render_explain, render_explain_all_rows, render_explain_json};

/// A fully compiled MiniParty program: lowered module, analysis summary
/// and the serializer programs for one optimization configuration.
#[derive(Clone)]
pub struct Compiled {
    pub module: Arc<Module>,
    pub analysis: Arc<AnalysisResult>,
    pub plans: Arc<Plans>,
    pub config: OptConfig,
}

impl Compiled {
    /// Pseudo-code dump of every remote call site's generated marshaler
    /// (paper Figures 6/7/13 style).
    pub fn dump_marshalers(&self) -> String {
        let mut out = String::new();
        let mut sites: Vec<_> = self.plans.sites.values().collect();
        sites.sort_by_key(|p| p.site);
        for plan in sites {
            out.push_str(&describe_plan(&self.module, plan));
            out.push('\n');
        }
        out
    }

    /// The analysis report for every remote call site.
    pub fn dump_analysis(&self) -> String {
        self.analysis.report(&self.module)
    }

    /// Dump of the points-to heap graph (paper Figure 2 style).
    pub fn dump_heap_graph(&self) -> String {
        self.analysis.points_to.graph.dump(&self.module)
    }
}

/// Compile MiniParty source under an optimization configuration: front
/// end, SSA, heap/cycle/escape analyses, serializer codegen.
pub fn compile(src: &str, config: OptConfig) -> Result<Compiled, CompileError> {
    let (module, analysis, plans) = corm_codegen::compile(src, config)?;
    Ok(Compiled {
        module: Arc::new(module),
        analysis: Arc::new(analysis),
        plans: Arc::new(plans),
        config,
    })
}

/// Execute a compiled program on the simulated cluster.
pub fn run(compiled: &Compiled, opts: RunOptions) -> RunOutcome {
    corm_vm::run_program(compiled.module.clone(), compiled.plans.clone(), opts)
}

/// Drive a compiled service open-loop instead of running its `main`:
/// slaves on machines `1..M`, client threads on machine 0 issuing RMIs
/// against a seeded arrival schedule, latency measured against intended
/// arrival time (see `corm_vm::serve` and DESIGN §8).
pub fn serve(
    compiled: &Compiled,
    schedule: &ArrivalSchedule,
    opts: &ServeOptions,
) -> Result<ServeReport, VmError> {
    corm_vm::serve(compiled.module.clone(), compiled.plans.clone(), schedule, opts)
}

/// Compile and run in one step.
pub fn compile_and_run(
    src: &str,
    config: OptConfig,
    opts: RunOptions,
) -> Result<RunOutcome, CompileError> {
    let c = compile(src, config)?;
    Ok(run(&c, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(src: &str, config: OptConfig, machines: usize) -> RunOutcome {
        let out = compile_and_run(src, config, RunOptions { machines, ..Default::default() })
            .expect("compile failed");
        if let Some(e) = &out.error {
            panic!("runtime error: {e}\noutput so far: {}", out.output);
        }
        out
    }

    #[test]
    fn hello_world() {
        let out = run_ok(
            r#"class M { static void main() { System.println("hello"); } }"#,
            OptConfig::CLASS,
            1,
        );
        assert_eq!(out.output, "hello\n");
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            class M {
                static int fib(int n) {
                    if (n < 2) { return n; }
                    return fib(n - 1) + fib(n - 2);
                }
                static void main() {
                    System.println(Str.fromLong(fib(15)));
                    int s = 0;
                    for (int i = 1; i <= 10; i++) { s += i; }
                    System.println(Str.fromLong(s));
                    double x = 2.0;
                    System.println(Str.fromDouble(Math.sqrt(x * 8.0)));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::CLASS, 1);
        assert_eq!(out.output, "610\n55\n4\n");
    }

    #[test]
    fn objects_arrays_strings() {
        let src = r#"
            class Point {
                int x; int y;
                Point(int x, int y) { this.x = x; this.y = y; }
                int sum() { return x + y; }
            }
            class M {
                static void main() {
                    Point p = new Point(3, 4);
                    System.println(Str.fromLong(p.sum()));
                    int[][] grid = new int[3][3];
                    grid[1][2] = 7;
                    System.println(Str.fromLong(grid[1][2] + grid[0][0]));
                    String s = "ab".concat("cd");
                    System.println(Str.fromLong(s.length()));
                    System.println(s);
                }
            }
        "#;
        let out = run_ok(src, OptConfig::CLASS, 1);
        assert_eq!(out.output, "7\n7\n4\nabcd\n");
    }

    #[test]
    fn virtual_dispatch() {
        let src = r#"
            class A { int f() { return 1; } }
            class B extends A { int f() { return 2; } }
            class M {
                static void main() {
                    A a = new A();
                    A b = new B();
                    System.println(Str.fromLong(a.f() + b.f() * 10));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::CLASS, 1);
        assert_eq!(out.output, "21\n");
    }

    const ECHO: &str = r#"
        class Box { int v; Box(int v) { this.v = v; } }
        remote class Echo {
            int calls;
            int twice(int x) { this.calls = this.calls + 1; return x + x; }
            Box wrap(Box b) { return new Box(b.v * 10); }
            int count() { return this.calls; }
        }
        class M {
            static void main() {
                Echo e = new Echo() @ 1;
                System.println(Str.fromLong(e.twice(21)));
                Box out = e.wrap(new Box(7));
                System.println(Str.fromLong(out.v));
                System.println(Str.fromLong(e.count()));
            }
        }
    "#;

    #[test]
    fn remote_calls_all_configs_agree() {
        let mut outputs = Vec::new();
        for (name, cfg) in OptConfig::TABLE_ROWS {
            let out = run_ok(ECHO, cfg, 2);
            assert_eq!(out.output, "42\n70\n1\n", "config {name}");
            outputs.push(out);
        }
        // site mode must send strictly fewer bytes than class mode
        let class_bytes = outputs[0].stats.wire_bytes;
        let site_bytes = outputs[1].stats.wire_bytes;
        assert!(
            site_bytes < class_bytes,
            "site ({site_bytes}) must beat class ({class_bytes}) on wire bytes"
        );
        // class mode sends type info; full-static site mode sends none
        assert!(outputs[0].stats.type_info_bytes > 0);
        assert_eq!(outputs[4].stats.type_info_bytes, 0);
    }

    #[test]
    fn remote_state_lives_on_owner() {
        // calls from two sites increment the same remote object
        let src = r#"
            remote class Counter {
                int n;
                void inc() { this.n = this.n + 1; }
                int get() { return this.n; }
            }
            class M {
                static void main() {
                    Counter c = new Counter() @ 1;
                    for (int i = 0; i < 5; i++) { c.inc(); }
                    System.println(Str.fromLong(c.get()));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::ALL, 2);
        assert_eq!(out.output, "5\n");
        assert!(out.stats.remote_rpcs >= 6);
    }

    #[test]
    fn local_rpc_clones_arguments() {
        // Placement on machine 0 == caller: still copy semantics.
        let src = r#"
            class Data { int v; }
            remote class R {
                void mutate(Data d) { d.v = 99; }
            }
            class M {
                static void main() {
                    R r = new R() @ 0;
                    Data d = new Data();
                    d.v = 1;
                    r.mutate(d);
                    System.println(Str.fromLong(d.v));
                }
            }
        "#;
        for (name, cfg) in OptConfig::TABLE_ROWS {
            let out = run_ok(src, cfg, 2);
            assert_eq!(out.output, "1\n", "RMI copy semantics violated under {name}");
            assert!(out.stats.local_rpcs >= 1);
        }
    }

    #[test]
    fn cyclic_structure_roundtrips() {
        let src = r#"
            class Node { Node next; int v; Node(int v) { this.v = v; } }
            remote class R {
                int len(Node n) {
                    int count = 0;
                    Node cur = n;
                    while (cur != null && count < 100) {
                        count++;
                        cur = cur.next;
                        if (cur == n) { return 0 - count; }
                    }
                    return count;
                }
            }
            class M {
                static void main() {
                    Node a = new Node(1);
                    Node b = new Node(2);
                    a.next = b;
                    b.next = a; // cycle
                    R r = new R() @ 1;
                    System.println(Str.fromLong(r.len(a)));
                }
            }
        "#;
        // identity must be preserved through the handle table: the cycle
        // closes back on the deserialized head (-2).
        for (name, cfg) in OptConfig::TABLE_ROWS {
            let out = run_ok(src, cfg, 2);
            assert_eq!(out.output, "-2\n", "cycle broken under {name}");
        }
    }

    #[test]
    fn reuse_recycles_objects() {
        let src = r#"
            remote class Sink {
                double sum;
                void take(double[] a) { this.sum = this.sum + a[0]; }
            }
            class M {
                static void main() {
                    Sink s = new Sink() @ 1;
                    double[] a = new double[64];
                    for (int i = 0; i < 50; i++) {
                        a[0] = i;
                        s.take(a);
                    }
                }
            }
        "#;
        let no_reuse = run_ok(src, OptConfig::SITE_CYCLE, 2);
        let reuse = run_ok(src, OptConfig::ALL, 2);
        assert_eq!(no_reuse.stats.reused_objs, 0);
        assert!(
            reuse.stats.reused_objs >= 49,
            "49 of 50 arrays reused, got {}",
            reuse.stats.reused_objs
        );
        assert!(reuse.stats.deser_bytes < no_reuse.stats.deser_bytes);
    }

    #[test]
    fn cycle_elimination_removes_lookups() {
        let src = r#"
            remote class Sink {
                double sum;
                void take(double[][] a) { this.sum = this.sum + a[0][0]; }
            }
            class M {
                static void main() {
                    Sink s = new Sink() @ 1;
                    double[][] a = new double[8][8];
                    for (int i = 0; i < 20; i++) { s.take(a); }
                }
            }
        "#;
        let site = run_ok(src, OptConfig::SITE, 2);
        let cycle = run_ok(src, OptConfig::SITE_CYCLE, 2);
        assert!(site.stats.cycle_lookups > 0);
        assert_eq!(cycle.stats.cycle_lookups, 0, "static proof removes all lookups");
    }

    #[test]
    fn spawn_and_queue_pipeline() {
        let src = r#"
            class Job { int v; Job(int v) { this.v = v; } }
            remote class Worker {
                Queue q;
                long total;
                boolean done;
                void start() {
                    this.q = new Queue(4);
                    long t = 0;
                    boolean running = true;
                    while (running) {
                        Job j = (Job) this.q.take();
                        if (j.v < 0) { running = false; }
                        else { t += j.v; }
                    }
                    this.total = t;
                    this.done = true;
                }
                void submit(Job j) { this.q.put(j); }
                long result() {
                    while (!this.done) { }
                    return this.total;
                }
                boolean ready() { return this.q != null; }
            }
            class M {
                static void main() {
                    Worker w = new Worker() @ 1;
                    spawn w.start();
                    while (!w.ready()) { }
                    for (int i = 1; i <= 10; i++) { w.submit(new Job(i)); }
                    w.submit(new Job(0 - 1));
                    System.println(Str.fromLong(w.result()));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::ALL, 2);
        assert_eq!(out.output, "55\n");
    }

    #[test]
    fn cluster_builtins() {
        let src = r#"
            class M {
                static void main() {
                    System.println(Str.fromLong(Cluster.machines()));
                    System.println(Str.fromLong(Cluster.my()));
                    System.println(Str.fromLong(Cluster.arg(0) + Cluster.arg(1)));
                }
            }
        "#;
        let out = compile_and_run(
            src,
            OptConfig::CLASS,
            RunOptions { machines: 3, args: vec![40, 2], ..Default::default() },
        )
        .unwrap();
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.output, "3\n0\n42\n");
    }

    #[test]
    fn runtime_errors_reported() {
        let src = r#"
            class M {
                static void main() {
                    int[] a = new int[2];
                    System.println(Str.fromLong(a[5]));
                }
            }
        "#;
        let out = compile_and_run(src, OptConfig::CLASS, RunOptions::default()).unwrap();
        let err = out.error.expect("expected bounds error");
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn remote_exception_propagates() {
        let src = r#"
            remote class R {
                int boom(int x) { return 1 / x; }
            }
            class M {
                static void main() {
                    R r = new R() @ 1;
                    System.println(Str.fromLong(r.boom(0)));
                }
            }
        "#;
        let out = compile_and_run(src, OptConfig::ALL, RunOptions::default()).unwrap();
        let err = out.error.expect("expected remote exception");
        assert!(err.message.contains("remote exception"), "{err}");
        assert!(err.message.contains("division by zero"), "{err}");
    }

    #[test]
    fn gc_runs_and_program_survives() {
        let src = r#"
            class Blob { double[] data; Blob() { this.data = new double[1000]; } }
            class M {
                static void main() {
                    Blob keep = new Blob();
                    keep.data[0] = 42.0;
                    for (int i = 0; i < 1000; i++) {
                        Blob b = new Blob();
                        b.data[0] = i;
                    }
                    System.gc();
                    System.println(Str.fromDouble(keep.data[0]));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::CLASS, 1);
        assert_eq!(out.output, "42\n");
        assert!(out.heap.gc_runs >= 1);
        assert!(out.heap.freed > 900, "garbage blobs collected");
    }

    #[test]
    fn statics_are_per_machine() {
        let src = r#"
            remote class R {
                int read() { return G.x; }
            }
            class G { static int x; }
            class M {
                static void main() {
                    G.x = 5;
                    R r = new R() @ 1;
                    // machine 1 has its own (zero) copy of G.x
                    System.println(Str.fromLong(r.read()));
                    System.println(Str.fromLong(G.x));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::ALL, 2);
        assert_eq!(out.output, "0\n5\n");
    }

    #[test]
    fn dump_marshalers_renders() {
        let c = compile(ECHO, OptConfig::ALL).unwrap();
        let dump = c.dump_marshalers();
        assert!(dump.contains("marshaler"));
        let report = c.dump_analysis();
        assert!(report.contains("remote Echo.twice"));
        assert!(!c.dump_heap_graph().is_empty());
    }

    #[test]
    fn doc_example_compiles() {
        // mirror of the crate-level doc example
        let src = r#"
            remote class Echo {
                int twice(int x) { return x + x; }
            }
            class Main {
                static void main() {
                    Echo e = new Echo() @ 1;
                    System.println(Str.fromLong(e.twice(21)));
                }
            }
        "#;
        let out = run_ok(src, OptConfig::ALL, 2);
        assert_eq!(out.output.trim(), "42");
    }
}
