//! Every value in flight is a root (DESIGN §5.9). A collection can run on any
//! thread of a machine whenever another is off the machine lock, so each
//! program here has one thread hold the *only* reference to a 100-node chain —
//! handed to a thread that has not started, or kept across a wait — while a
//! sibling collects and then allocates enough to recycle every swept slot.
//! The holder must still count 100 nodes: unaudited, where a missed root is a
//! silent alias of the sibling's fresh nodes, and audited, where it is a
//! `dangling reference` error and every pacing point collects besides.

use corm::{compile, Compiled, OptConfig, RunOptions, RunOutcome};

/// How long a run may take before the test calls it hung. A pass returns as
/// soon as the run is done.
const LOST: std::time::Duration = std::time::Duration::from_secs(60);

/// `corm::run` on a thread of its own, within [`LOST`]: a run that hangs —
/// a thread starved of the machine lock — fails the test named by `ctx`
/// instead of hanging the suite.
fn run_within_deadline(compiled: &Compiled, opts: RunOptions, ctx: &str) -> RunOutcome {
    let (done_tx, done) = std::sync::mpsc::channel();
    let c = compiled.clone();
    // (The receiver is gone only if the deadline already failed the test.)
    std::thread::spawn(move || drop(done_tx.send(corm::run(&c, opts))));
    done.recv_timeout(LOST).unwrap_or_else(|_| panic!("{ctx}: starved, no outcome after {LOST:?}"))
}

/// What every program shares: the chain, its builder and its walker.
const CHAIN: &str = r#"
    class Node {
        int v;
        Node next;
        Node(int v, Node next) { this.v = v; this.next = next; }
    }
    class Chain {
        static Node of(int n) {
            Node head = null;
            for (int i = 0; i < n; i++) { head = new Node(i, head); }
            return head;
        }
        static void print(Node chain) {
            int n = 0;
            while (chain != null) { n++; chain = chain.next; }
            System.println(Str.fromLong(n));
        }
        // The sibling's part: sweep whatever is unrooted, then take its slots.
        static Node collectAndRecycle() {
            System.gc();
            return Chain.of(300);
        }
    }
"#;

/// Run `program` (with [`CHAIN`]) `runs` times audited and `runs` times not:
/// each run must print `100`, raise nothing and have collected. No `main`
/// waits for the holder it spawned — the end of a run joins it — so a holder
/// that dies of a dangling reference fails the run instead of hanging it.
fn holder_keeps_its_chain(program: &str, machines: usize, runs: usize) {
    let src = format!("{CHAIN}{program}");
    let compiled = compile(&src, OptConfig::ALL).unwrap_or_else(|e| panic!("{e}"));
    for audit in [false, true] {
        for run in 0..runs {
            let opts = RunOptions { machines, audit, ..Default::default() };
            let ctx = format!("run {run}, audit {audit}");
            let out = run_within_deadline(&compiled, opts, &ctx);
            assert!(out.error.is_none(), "{ctx}: {}", out.error.unwrap());
            assert_eq!(out.output, "100\n", "{ctx}");
            assert!(out.heap.gc_runs > 0, "{ctx}: the sibling's System.gc() did not collect");
        }
    }
}

/// The spawn gap: the chain exists only as the argument of a thread that has
/// not run yet (`launch`'s frame is gone by the time `main` collects).
#[test]
fn a_local_spawns_arguments_are_rooted_before_the_thread_runs() {
    let program = r#"
        class Job {
            void run(Node chain) { Chain.print(chain); }
        }
        class Main {
            static void launch(Job j) { spawn j.run(Chain.of(100)); }
            static void main() {
                Job j = new Job();
                Main.launch(j);
                Node fresh = Chain.collectAndRecycle();
                System.sleepMicros(500);
            }
        }
    "#;
    holder_keeps_its_chain(program, 1, 20);
}

/// The same gap through `local_rpc`'s spawn branch: a one-way RMI to an object
/// on the caller's own machine clones the chain in on the caller's thread and
/// hands the clone to a new one.
#[test]
fn a_local_one_way_rmis_cloned_arguments_are_rooted_before_the_thread_runs() {
    let program = r#"
        remote class Job {
            void run(Node chain) { Chain.print(chain); }
        }
        class Main {
            static void launch(Job j) { spawn j.run(Chain.of(100)); }
            static void main() {
                Job j = new Job();
                Main.launch(j);
                Node fresh = Chain.collectAndRecycle();
                System.sleepMicros(500);
            }
        }
    "#;
    holder_keeps_its_chain(program, 1, 20);
}

/// A thread parked in `Queue.take`, its chain in its frame, while `main` collects.
#[test]
fn a_thread_parked_in_a_queue_keeps_its_frames_rooted() {
    let program = r#"
        class Holder {
            Queue ready;
            Queue go;
            Holder() {
                this.ready = new Queue(1);
                this.go = new Queue(1);
            }
            void run() {
                Node mine = Chain.of(100);
                this.ready.put(null);
                this.go.take();
                Chain.print(mine);
            }
        }
        class Main {
            static void main() {
                Holder h = new Holder();
                spawn h.run();
                h.ready.take();
                Node fresh = Chain.collectAndRecycle();
                h.go.put(null);
            }
        }
    "#;
    holder_keeps_its_chain(program, 1, 10);
}

/// A thread in a round trip to machine 1 — the handler there says when it has
/// begun and ends when told — while `main` collects on machine 0.
#[test]
fn a_thread_in_a_round_trip_keeps_its_frames_rooted() {
    let program = r#"
        remote class Gate {
            Queue entered;
            Queue leave;
            void init() {
                this.entered = new Queue(1);
                this.leave = new Queue(1);
            }
            int pass(int x) {
                this.entered.put(null);
                this.leave.take();
                return x;
            }
            void awaitEntered() { this.entered.take(); }
            void open() { this.leave.put(null); }
        }
        class Holder {
            Gate gate;
            Holder(Gate gate) { this.gate = gate; }
            void run() {
                Node mine = Chain.of(100);
                int x = this.gate.pass(7);
                Chain.print(mine);
            }
        }
        class Main {
            static void main() {
                Gate gate = new Gate() @ 1;
                gate.init();
                Holder h = new Holder(gate);
                spawn h.run();
                gate.awaitEntered();
                Node fresh = Chain.collectAndRecycle();
                gate.open();
            }
        }
    "#;
    holder_keeps_its_chain(program, 2, 10);
}

/// A thread that never waits: it spins until told to stop, so `main` runs —
/// and collects — only inside the spinner's safepoint yields.
#[test]
fn a_thread_at_a_safepoint_yield_keeps_its_frames_rooted() {
    let program = r#"
        class Holder {
            Queue ready;
            boolean stop;
            Holder() {
                this.ready = new Queue(1);
                this.stop = false;
            }
            void run() {
                Node mine = Chain.of(100);
                this.ready.put(null);
                long spins = 0;
                while (!this.stop) { spins++; }
                Chain.print(mine);
            }
        }
        class Main {
            static void main() {
                Holder h = new Holder();
                spawn h.run();
                h.ready.take();
                Node fresh = Chain.collectAndRecycle();
                h.stop = true;
            }
        }
    "#;
    holder_keeps_its_chain(program, 1, 10);
}

/// A spinner never starves a thread coming back from any release path. The
/// spinner never waits, so a thread on its machine gets the lock back only at
/// the spinner's safepoints, which let go only to a thread acquiring the lock:
/// each way back — out of `Queue.take`, out of `Queue.put` on a full queue, out
/// of `sleepMicros`, out of a round trip, and a spawned thread's first entry —
/// must be counted as acquiring, and a `Queue` wake the spinner made must be
/// delivered at its safepoint. A way back that is not counted hangs the run,
/// which fails at the deadline.
#[test]
fn a_spinning_sibling_never_starves_a_thread_coming_back_to_the_lock() {
    const SPINNER: &str = r#"
        remote class Echo {
            int ping(int x) { return x; }
        }
        class Spinner {
            Queue q;
            boolean stop;
            Spinner() {
                this.q = new Queue(1);
                this.stop = false;
            }
            void spin() {
                long spins = 0;
                while (!this.stop) { spins++; }
                System.println("spun");
            }
            void putThenSpin() { this.q.put(null); this.spin(); }
            void takeThenSpin() { this.q.take(); this.spin(); }
            void spawnThenSpin() {
                Spinner me = this;
                spawn me.halt();
                this.spin();
            }
            void halt() { this.stop = true; }
        }
    "#;
    let cases = [
        ("Queue.take", "spawn s.putThenSpin(); s.q.take(); s.stop = true;"),
        (
            "Queue.put on a full queue",
            "s.q.put(null); spawn s.takeThenSpin(); s.q.put(null); s.stop = true;",
        ),
        (
            "sleepMicros",
            "spawn s.putThenSpin(); s.q.take(); System.sleepMicros(1000); s.stop = true;",
        ),
        (
            "a round trip",
            "Echo e = new Echo() @ 1; spawn s.putThenSpin(); s.q.take(); e.ping(7); s.stop = true;",
        ),
        ("a spawned thread's first entry", "spawn s.spawnThenSpin();"),
    ];
    for (path, back) in cases {
        let main =
            format!("class Main {{ static void main() {{ Spinner s = new Spinner(); {back} }} }}");
        let compiled = compile(&format!("{SPINNER}{main}"), OptConfig::ALL)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        for run in 0..5 {
            let opts = RunOptions { machines: 2, ..Default::default() };
            let out = run_within_deadline(&compiled, opts, &format!("{path}, run {run}"));
            assert!(out.error.is_none(), "{path}, run {run}: {}", out.error.unwrap());
            assert_eq!(out.output, "spun\n", "{path}, run {run}");
        }
    }
}

/// The register file holds exactly the live frames' registers: a callee's
/// window goes with its return, so a chain only the callee's registers held is
/// garbage at the next collection, every node of it.
#[test]
fn a_returned_callees_registers_root_nothing() {
    let program = r#"
        class Main {
            static int build() {
                Node mine = Chain.of(100);
                return 7;
            }
            static void main() {
                int seven = Main.build();
                System.gc();
            }
        }
    "#;
    let compiled = compile(&format!("{CHAIN}{program}"), OptConfig::ALL).unwrap();
    let out = corm::run(&compiled, RunOptions { machines: 1, ..Default::default() });
    assert!(out.error.is_none(), "{}", out.error.unwrap());
    assert_eq!((out.heap.gc_runs, out.heap.allocs, out.heap.freed), (1, 100, 100));
}

/// A caller's window stays below its callee's: a chain held only in `main`'s
/// register survives a callee that collects and then allocates over the swept
/// slots.
#[test]
fn a_callers_registers_stay_rooted_across_an_allocating_callee() {
    let program = r#"
        class Main {
            static void main() {
                Node mine = Chain.of(100);
                Node fresh = Chain.collectAndRecycle();
                Chain.print(mine);
            }
        }
    "#;
    holder_keeps_its_chain(program, 1, 1);
}
