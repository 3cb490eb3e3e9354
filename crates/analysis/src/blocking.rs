//! May-block analysis: can serving a remote method make its thread wait?
//!
//! Manta serves a remote method in the communication upcall whenever its
//! compiler proves the method cannot block (Maassen et al., TOPLAS 2001);
//! this is that proof. A method *may block* when it, or anything it can
//! transitively call, contains a remote call (a round trip), a `spawn`
//! (the handler would send something besides its reply), a `new` of a
//! remote class (a round trip to the placement machine) or one of the four
//! waiting builtins. Loops, allocation and `System.gc` do not wait. The
//! verdict is a property of the program alone — no optimisation config
//! changes it — and the VM's drain thread acts on it (DESIGN §5.7).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use corm_ir::{Builtin, CallTarget, Instr, MethodId, Module};

/// Where a remote method is served, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFinding {
    pub may_block: bool,
    pub rule: &'static str,
    /// For a may-block method, the call chain from it to the blocking
    /// operation, e.g. `Worker.join → Queue.take`.
    pub witness: String,
}

/// The builtins a VM thread can wait in, by their source name.
fn waiting_builtin(b: Builtin) -> Option<&'static str> {
    match b {
        Builtin::SleepMicros => Some("System.sleepMicros"),
        Builtin::ClusterBarrier => Some("Cluster.barrier"),
        Builtin::QueuePut => Some("Queue.put"),
        Builtin::QueueTake => Some("Queue.take"),
        _ => None,
    }
}

fn label(m: &Module, mid: MethodId) -> String {
    let meth = m.table.method(mid);
    format!("{}.{}", m.table.class(meth.owner).name, meth.name)
}

/// Everything `mid`'s own body can call — or the first thing in it that can
/// wait, as (rule, operation).
fn callees_of(m: &Module, mid: MethodId) -> Result<Vec<MethodId>, (&'static str, String)> {
    let Some(f) = m.func_of_method(mid) else {
        return Err(("no-body", "(no body to inspect)".into()));
    };
    let mut callees = Vec::new();
    for instr in m.func(f).blocks.iter().flat_map(|b| &b.instrs) {
        match instr {
            Instr::Spawn { .. } => return Err(("spawn", "spawn".into())),
            Instr::New { class, .. } if m.table.class(*class).is_remote => {
                let class = &m.table.class(*class).name;
                return Err(("remote-new", format!("new {class} (remote class)")));
            }
            Instr::Call { target, .. } => match *target {
                CallTarget::Remote(callee) => {
                    return Err(("remote-call", format!("{} (remote call)", label(m, callee))));
                }
                CallTarget::Builtin(b) => {
                    if let Some(name) = waiting_builtin(b) {
                        return Err(("blocking-builtin", name.into()));
                    }
                }
                CallTarget::Static(callee) | CallTarget::Ctor(callee) => callees.push(callee),
                CallTarget::Virtual { decl, vslot } => {
                    let subclasses = m.table.subclasses_of(m.table.method(decl).owner);
                    let slot = |c| m.table.class(c).vtable.get(vslot as usize).copied();
                    callees.extend(subclasses.into_iter().filter_map(slot));
                }
            },
            _ => {}
        }
    }
    Ok(callees)
}

/// Breadth-first over everything `root` can call, so the witness is a
/// shortest chain and recursion costs one visit per method.
pub fn may_block(m: &Module, root: MethodId) -> ServeFinding {
    // Visited methods, each with the method it was first reached from.
    let mut reached_from: HashMap<MethodId, Option<MethodId>> = HashMap::from([(root, None)]);
    let mut queue = VecDeque::from([root]);
    while let Some(mid) = queue.pop_front() {
        match callees_of(m, mid) {
            Ok(callees) => {
                for callee in callees {
                    if let Entry::Vacant(unseen) = reached_from.entry(callee) {
                        unseen.insert(Some(mid));
                        queue.push_back(callee);
                    }
                }
            }
            Err((rule, op)) => {
                let mut chain = vec![op];
                let mut cur = Some(mid);
                while let Some(c) = cur {
                    chain.push(label(m, c));
                    cur = reached_from[&c];
                }
                chain.reverse();
                return ServeFinding { may_block: true, rule, witness: chain.join(" → ") };
            }
        }
    }
    ServeFinding {
        may_block: false,
        rule: "no-blocking-operation",
        witness: format!(
            "searched {} and {} callee(s): no remote call, spawn, remote `new`, sleep, \
             barrier or queue wait",
            label(m, root),
            reached_from.len() - 1
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::compile_frontend;

    /// The finding for `Class.method` of `src`.
    fn finding(src: &str, class: &str, method: &str) -> ServeFinding {
        let m = compile_frontend(src).unwrap_or_else(|e| panic!("{e}"));
        let class = m.table.class_named(class).expect("class");
        may_block(&m, m.table.find_method(class, method).expect("method"))
    }

    /// `R.f` with `body`, beside helpers that every rule's test can reach.
    fn r_f(body: &str) -> ServeFinding {
        let src = format!(
            r#"
            remote class Other {{
                int g(int x) {{ return x; }}
                void go() {{ }}
            }}
            class Shape {{ int area(Queue q) {{ return 1; }} }}
            class Waiting extends Shape {{
                int area(Queue q) {{ q.take(); return 2; }}
            }}
            class Box {{
                Box(Queue q) {{ q.put(null); }}
            }}
            class Util {{
                static int pure(int n) {{
                    int s = 0;
                    for (int i = 0; i < n; i++) {{ s += i; }}
                    return s;
                }}
                static int even(int n) {{ if (n == 0) {{ return 1; }} return Util.odd(n - 1); }}
                static int odd(int n) {{ if (n == 0) {{ return 0; }} return Util.even(n - 1); }}
                static int napEven(int n) {{
                    if (n == 0) {{ return 1; }}
                    return Util.napOdd(n - 1);
                }}
                static int napOdd(int n) {{
                    System.sleepMicros(1);
                    if (n == 0) {{ return 0; }}
                    return Util.napEven(n - 1);
                }}
                static void run() {{ }}
            }}
            remote class R {{
                Other o;
                Queue q;
                int f(int n) {{ {body} }}
            }}
            class M {{ static void main() {{ }} }}
        "#
        );
        finding(&src, "R", "f")
    }

    fn assert_worker(f: &ServeFinding, rule: &str, witness: &str) {
        assert!(f.may_block, "{f:?}");
        assert_eq!((f.rule, f.witness.as_str()), (rule, witness));
    }

    #[test]
    fn a_remote_call_may_block() {
        let f = r_f("return this.o.g(n);");
        assert_worker(&f, "remote-call", "R.f → Other.g (remote call)");
    }

    #[test]
    fn a_spawn_may_block() {
        assert_worker(&r_f("spawn Util.run(); return n;"), "spawn", "R.f → spawn");
        assert_worker(&r_f("spawn this.o.go(); return n;"), "spawn", "R.f → spawn");
    }

    #[test]
    fn allocating_a_remote_object_may_block() {
        let f = r_f("this.o = new Other() @ 0; return n;");
        assert_worker(&f, "remote-new", "R.f → new Other (remote class)");
    }

    #[test]
    fn each_waiting_builtin_may_block() {
        for (call, name) in [
            ("System.sleepMicros(5);", "System.sleepMicros"),
            ("Cluster.barrier();", "Cluster.barrier"),
            ("this.q.put(null);", "Queue.put"),
            ("this.q.take();", "Queue.take"),
        ] {
            let f = r_f(&format!("{call} return n;"));
            assert_worker(&f, "blocking-builtin", &format!("R.f → {name}"));
        }
    }

    #[test]
    fn a_block_is_found_through_a_constructor() {
        let f = r_f("Box b = new Box(this.q); return n;");
        assert_worker(&f, "blocking-builtin", "R.f → Box.Box → Queue.put");
    }

    #[test]
    fn a_block_is_found_through_an_override_in_a_subclass() {
        // The static receiver type is the base class, whose own `area` is pure.
        let f = r_f("Shape s = new Shape(); return s.area(this.q);");
        assert_worker(&f, "blocking-builtin", "R.f → Waiting.area → Queue.take");
    }

    #[test]
    fn recursion_terminates_and_blocks_iff_the_cycle_does() {
        let pure = r_f("return Util.even(n);");
        assert!(!pure.may_block, "{pure:?}");
        assert_eq!(pure.rule, "no-blocking-operation");
        assert!(pure.witness.starts_with("searched R.f and 2 callee(s): no "), "{pure:?}");
        let f = r_f("return Util.napEven(n);");
        let chain = "R.f → Util.napEven → Util.napOdd → System.sleepMicros";
        assert_worker(&f, "blocking-builtin", chain);
    }

    #[test]
    fn loops_allocation_and_gc_do_not_block() {
        let f = r_f("int[] big = new int[n]; Queue mine = new Queue(4); System.gc(); \
             for (int i = 0; i < n; i++) { big[i] = Util.pure(i); } return mine.size();");
        assert!(!f.may_block, "{f:?}");
    }

    /// The verdicts the VM acts on for the five applications.
    #[test]
    fn verdicts_of_the_five_apps() {
        /// (class, method, the witness if it may block)
        type Expected = (&'static str, &'static str, Option<&'static str>);
        let apps: [(&str, &[Expected]); 5] = [
            (
                include_str!("../../apps/src/programs/lu.mp"),
                &[
                    ("Master", "init", None),
                    ("Master", "flushRow", None),
                    ("Master", "getRow", None),
                    ("Master", "trace", None),
                    ("Master", "checksum", None),
                    ("Worker", "setup", None),
                    ("Worker", "join", Some("Worker.join → Queue.take")),
                ],
            ),
            (
                include_str!("../../apps/src/programs/superopt.mp"),
                &[
                    ("Tester", "configure", None),
                    ("Tester", "ready", None),
                    ("Tester", "foundCount", None),
                    ("Tester", "testedCount", None),
                    ("Tester", "submit", Some("Tester.submit → Queue.put")),
                    ("Tester", "join", Some("Tester.join → Queue.take")),
                ],
            ),
            (
                include_str!("../../apps/src/programs/webserver.mp"),
                &[("Slave", "init", None), ("Slave", "getPage", None)],
            ),
            (
                include_str!("../../apps/src/programs/array2d.mp"),
                &[("ArrayBench", "send", None), ("ArrayBench", "check", None)],
            ),
            (
                include_str!("../../apps/src/programs/linked_list.mp"),
                &[("Foo", "send", None), ("Foo", "check", None)],
            ),
        ];
        for (src, methods) in apps {
            for &(class, method, blocks_via) in methods {
                let f = finding(src, class, method);
                assert_eq!(f.may_block, blocks_via.is_some(), "{class}.{method}: {f:?}");
                if let Some(witness) = blocks_via {
                    assert_eq!(f.witness, witness, "{class}.{method}");
                }
            }
        }
    }
}
