//! The heap is bounded (DESIGN §5.9): a server whose handlers allocate nothing
//! still makes garbage — every argument graph it unmarshals, every reply its
//! caller unmarshals — and the pacer collects it in step with the live heap.
//! Measured on modeled live bytes (`HeapStats::peak_live_bytes`), per machine,
//! not on RSS: the bound must hold on the caller and on the server, under the
//! configurations that allocate per call (`class`, `site`), with one calling
//! thread and with two, and on a machine that keeps a thread parked for ever.

use corm::{compile, Cluster, HeapStats, OptConfig, RunOptions, RunOutcome};
use corm_heap::MIN_GC_STEP;
use corm_vm::interp::Interp;

/// A service with a list, a matrix and a page site, about 16 KB of garbage an
/// iteration on either machine in few, large objects. `args`: iterations per
/// client (three RMIs each), clients. One client runs on `main`'s thread; two
/// are spawned, so machine 0 has three threads and machine 1 serves two callers.
const SERVICE: &str = r#"
    class Node {
        int[] pad;
        Node next;
        Node(int v, Node next) {
            this.pad = new int[252];
            this.pad[0] = v;
            this.next = next;
        }
    }
    class Page {
        int[] body;
        Page(int size, int fill) {
            this.body = new int[size];
            for (int i = 0; i < size; i++) { this.body[i] = fill + i; }
        }
    }
    remote class Service {
        Page[] pages;
        void init(int npages, int size) {
            this.pages = new Page[npages];
            for (int i = 0; i < npages; i++) { this.pages[i] = new Page(size, i); }
        }
        long headOf(Node l) { return l.pad[0]; }
        long cornerOf(double[][] m) { return (long) m[15][15]; }
        Page getPage(int i) { return this.pages[i]; }
    }
    class Client {
        Service svc;
        int iters;
        Queue done;
        Client(Service svc, int iters) {
            this.svc = svc;
            this.iters = iters;
            this.done = new Queue(1);
        }
        void run() {
            Node list = null;
            for (int i = 0; i < 16; i++) { list = new Node(i, list); }
            double[][] mat = new double[16][16];
            for (int i = 0; i < 16; i++) { mat[i][i] = i; }
            long total = 0;
            for (int i = 0; i < this.iters; i++) {
                total += this.svc.headOf(list);
                total += this.svc.cornerOf(mat);
                Page p = this.svc.getPage(i % 8);
                total += p.body[0] + p.body.length;
            }
            System.println(Str.fromLong(total));
            this.done.put(null);
        }
    }
    class Main {
        static void main() {
            int iters = (int) Cluster.arg(0);
            int clients = (int) Cluster.arg(1);
            Service svc = new Service() @ 1;
            svc.init(8, 4096);
            if (clients == 1) {
                Client only = new Client(svc, iters);
                only.run();
                return;
            }
            Client[] cs = new Client[clients];
            for (int c = 0; c < clients; c++) {
                cs[c] = new Client(svc, iters);
                spawn cs[c].run();
            }
            for (int c = 0; c < clients; c++) { cs[c].done.take(); }
        }
    }
"#;

/// Run `src` to the end and return, beside the outcome, each machine's own
/// heap statistics (`RunOutcome::heap` is their sum).
fn run_per_machine(src: &str, config: OptConfig, args: &[i64]) -> (RunOutcome, Vec<HeapStats>) {
    let c = compile(src, config).unwrap_or_else(|e| panic!("{e}"));
    let opts = RunOptions { machines: 2, args: args.to_vec(), ..Default::default() };
    let cluster = Cluster::start(c.module.clone(), c.plans.clone(), &opts);
    assert!(cluster.run_clinits().is_none());
    let rt = cluster.rt.clone();
    let error = Interp::new(rt.clone(), 0).run_function(c.module.main, Vec::new()).err();
    let out = cluster.finish(error);
    assert!(out.error.is_none(), "{}", out.error.as_ref().unwrap());
    let heaps = rt.machines.iter().map(|m| m.state.lock().heap.stats).collect();
    (out, heaps)
}

#[test]
fn serving_holds_the_heap_flat_on_caller_and_server() {
    const N: i64 = 80;
    for (name, config) in [("class", OptConfig::CLASS), ("site", OptConfig::SITE)] {
        for clients in [1, 2] {
            // N iterations in all, however many clients share them.
            let each = N / clients;
            let (short, after_n) = run_per_machine(SERVICE, config, &[each, clients]);
            let (long, after_4n) = run_per_machine(SERVICE, config, &[4 * each, clients]);
            let ctx = format!("{name}, {clients} client(s)");
            assert_eq!(short.output.lines().count(), clients as usize, "{ctx}");
            assert_eq!(long.stats.remote_rpcs, (4 * N * 3 + 1) as u64, "{ctx}");
            for (m, (n, n4)) in after_n.iter().zip(&after_4n).enumerate() {
                let ctx = format!("{ctx}, machine {m}");
                // Four times the calls made four times the garbage ...
                assert!(n4.deser_bytes > 3 * n.deser_bytes, "{ctx}: {n4:?} after {n:?}");
                assert!(n4.deser_bytes > 4 * MIN_GC_STEP, "{ctx}: too little to pace: {n4:?}");
                // ... and the heap never held more of it at once.
                assert!(
                    n4.peak_live_bytes <= n.peak_live_bytes + MIN_GC_STEP,
                    "{ctx}: peak live bytes grew from {} to {}",
                    n.peak_live_bytes,
                    n4.peak_live_bytes
                );
                assert!(n4.gc_runs > n.gc_runs && n.gc_runs > 0, "{ctx}: {n4:?} after {n:?}");

                // What an operator sees of it: one `corm_gc_pause_us` sample and
                // one `corm_gc_runs_total` count per collection, and the level
                // the last one left in `corm_heap_live_bytes`.
                let shard = &long.metrics.machines[m];
                assert_eq!(shard.gc_runs, n4.gc_runs, "{ctx}");
                assert_eq!(shard.gc_pause_us.count, n4.gc_runs, "{ctx}");
                assert!(shard.heap_live_bytes > 0, "{ctx}");
                assert!(shard.heap_live_bytes <= n4.peak_live_bytes, "{ctx}");
            }
            assert_eq!(
                long.heap.peak_live_bytes,
                after_4n.iter().map(|h| h.peak_live_bytes).sum::<u64>(),
                "{ctx}: RunOutcome::heap folds the machines' peaks"
            );
        }
    }
}

/// A machine with company collects. The worker parked in `join` for the whole
/// run keeps machine 1 at two threads: under the old rule (collect only when
/// alone) it would never have collected, whatever it unmarshaled.
#[test]
fn a_machine_with_a_thread_parked_in_join_still_collects() {
    let program = r#"
        class Node {
            int v;
            Node next;
            Node(int v, Node next) { this.v = v; this.next = next; }
        }
        remote class Slave {
            Queue fin;
            void init() { this.fin = new Queue(1); }
            void join() { this.fin.take(); }
            void finish() { this.fin.put(null); }
            long headOf(Node l) { return l.v; }
        }
        class Main {
            static void main() {
                Slave s = new Slave() @ 1;
                s.init();
                spawn s.join();
                Node list = null;
                for (int i = 0; i < 1024; i++) { list = new Node(i, list); }
                long total = 0;
                for (int i = 0; i < 100; i++) { total += s.headOf(list); }
                s.finish();
                System.println(Str.fromLong(total));
            }
        }
    "#;
    let (out, heaps) = run_per_machine(program, OptConfig::CLASS, &[]);
    assert_eq!(out.output, "102300\n");
    let server = &heaps[1];
    assert!(server.deser_bytes > 2 * MIN_GC_STEP, "{server:?}");
    assert!(server.gc_runs > 0, "machine 1 never collected: {server:?}");
    assert!(server.peak_live_bytes < 2 * MIN_GC_STEP, "{server:?}");
}
