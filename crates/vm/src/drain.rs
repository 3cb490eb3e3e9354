//! A machine's receive side (DESIGN §5.7): one drain role per machine, so
//! that at any time exactly one thread drains the network, as the paper's
//! modified GM layer requires. The holder receives every packet and serves a
//! two-way request itself, as Manta serves one in the communication upcall.
//! A handler about to wait hands the role on first
//! ([`Interp::about_to_wait`]): to an idle follower, or to a thread started
//! for it. Once the handler is done, its thread queues for the role again.
//! Nothing decides in advance who serves what, and a machine holds one drain
//! thread plus one per served handler that is waiting.

use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use corm_net::{Mailbox, Packet};
use parking_lot::{Condvar, Mutex};

use crate::interp::Interp;
use crate::reply::peer_gone;
use crate::rmi;
use crate::runtime::{spawn_detached, spawn_vm_thread, Mark, Milestone, Runtime};
use crate::trace::{Phase, TraceKind};

/// Who may receive from one machine's mailbox.
#[derive(Default)]
pub(crate) struct DrainRole {
    mailbox: OnceLock<Mailbox>,
    state: Mutex<RoleState>,
    /// Where followers wait for the role to be free.
    free: Condvar,
}

#[derive(Default)]
struct RoleState {
    /// A thread holds the role: it alone calls `recv`.
    held: bool,
    /// Threads queued for the role, or started for it and not there yet.
    followers: usize,
    /// The mailbox said `Shutdown` or `Disconnected`: nobody takes the role again.
    closed: bool,
    /// Every drain thread the machine started, for [`DrainRole::join`].
    threads: Vec<JoinHandle<()>>,
}

impl DrainRole {
    /// Give the role its mailbox and start the machine's first drain thread.
    pub(crate) fn start(&self, rt: &Arc<Runtime>, mailbox: Mailbox) {
        let machine = mailbox.machine();
        assert!(self.mailbox.set(mailbox).is_ok(), "machine {machine} is started once");
        self.start_follower(&mut self.state.lock(), rt, machine);
    }

    /// Start a drain thread, counted as a follower until it takes the role.
    fn start_follower(&self, st: &mut RoleState, rt: &Arc<Runtime>, machine: u16) {
        st.followers += 1;
        let rt = rt.clone();
        st.threads.push(spawn_vm_thread("corm-drain", move || drain_thread(rt, machine)));
    }

    /// The holder is about to wait: the role goes to a follower, or to a
    /// thread started for it when none is queued.
    pub(crate) fn hand_off(&self, rt: &Arc<Runtime>, machine: u16) {
        let mut st = self.state.lock();
        st.held = false;
        if st.followers > 0 {
            self.free.notify_one();
        } else {
            self.start_follower(&mut st, rt, machine);
        }
    }

    /// A handler that gave the role up is done: its thread queues for the
    /// role again. Counted before its reply leaves, so the caller's next
    /// request finds it queued and no thread is started for it.
    pub(crate) fn requeue(&self) {
        self.state.lock().followers += 1;
    }

    /// Wait, as a follower, for the role; `false` once the machine is closed.
    fn take(&self) -> bool {
        let mut st = self.state.lock();
        while st.held && !st.closed {
            self.free.wait(&mut st);
        }
        st.followers -= 1;
        st.held = !st.closed;
        st.held
    }

    /// Nobody takes the role again: every follower wakes to exit.
    fn close(&self) {
        let mut st = self.state.lock();
        (st.closed, st.held) = (true, false);
        self.free.notify_all();
    }

    /// Join every drain thread the machine started, mid-run ones too. The
    /// machine must have been sent `Shutdown`.
    pub(crate) fn join(&self) {
        loop {
            let thread = self.state.lock().threads.pop();
            match thread {
                Some(t) => drop(t.join()),
                None => break,
            }
        }
    }
}

/// A drain thread's life: take the role and drain while holding it, queue
/// for it again after each handler that gave it up, exit once the machine
/// closes. One `Interp` is lent to every request the thread serves.
fn drain_thread(rt: Arc<Runtime>, my: u16) {
    let mut interp = Interp::new(rt, my);
    let machine = interp.machine.clone();
    while machine.drain.take() {
        interp.draining = true;
        if !drain(&mut interp) {
            break;
        }
    }
}

/// Fail the calls of machine `my` that wait on `peer` (on anyone, for
/// `None`) — an orderly remote error in place of silent quiescence. Each
/// gets a `Fail` flight event and is remembered for the end-of-run dump.
fn fail_calls(rt: &Runtime, my: u16, peer: Option<u16>, why: &str) {
    let failed = rt.machine(my).pending.fail(peer, why);
    for &req in &failed {
        let gone = Milestone::Fail { peer: peer.unwrap_or(u16::MAX) };
        rt.call(my, req, 0).boundary(&[Mark::At(0, gone)]);
    }
    rt.flight_failed.lock().extend(failed);
}

/// One request on its way from the drain loop to whoever serves it: its
/// `Packet::Request`, plus — for a one-way request, served on a thread of
/// its own — the stamp at which the drain loop opened its queue phase
/// (host-side only; the wire format does not know it).
pub(crate) struct WorkItem {
    pub req: u64,
    pub from: u16,
    pub site: u32,
    pub target_obj: u32,
    pub payload: Vec<u8>,
    pub oneway: bool,
    pub enq_us: Option<u64>,
}

/// Receive and handle packets for as long as `interp` holds the role: a
/// two-way request is served right here, a one-way one on a thread of its
/// own, a `NewRemote` allocation inline. The fabric completes replies where
/// they arrive (`Cluster::start`), so the `Reply` arm is only what a fabric
/// without a reply handler would need. Returns `false` once the machine is
/// closed, `true` when a handler gave the role up.
fn drain(interp: &mut Interp) -> bool {
    let (rt, machine) = (interp.rt.clone(), interp.machine.clone());
    let my = machine.id;
    let mailbox = machine.drain.mailbox.get().expect("a started machine has its mailbox");
    while interp.draining {
        // A fabric gone without a `Shutdown` packet can deliver no reply
        // again: every waiter fails, and the machine closes as on `Shutdown`.
        let packet = mailbox.recv().unwrap_or_else(|_| {
            fail_calls(&rt, my, None, "transport disconnected");
            Packet::Shutdown
        });
        match packet {
            Packet::Shutdown => {
                machine.drain.close();
                return false;
            }
            Packet::PeerGone { peer } => fail_calls(&rt, my, Some(peer), &peer_gone(peer)),
            Packet::Reply { req_id, payload, err } => {
                machine.pending.complete(req_id, err.map_or(Ok(payload), Err));
            }
            // The reply is routed by `from`, and the fabric indexes its
            // tables by it: a sender that is no machine gets no answer.
            Packet::NewRemote { from, .. } | Packet::Request { from, .. }
                if from as usize >= rt.machines.len() =>
            {
                let n = rt.machines.len();
                rt.print(&format!("[machine {my}] dropped a request from machine {from} of {n}\n"));
            }
            Packet::NewRemote { req_id, from, class } => {
                rt.instant(my, TraceKind::NewRemote { class, from });
                let (payload, err) = if class as usize >= rt.module.table.classes.len() {
                    (Vec::new(), Some(format!("unknown class id {class}")))
                } else {
                    let mut st = machine.state.lock();
                    let obj = st.alloc_zeroed(&rt.module.table, corm_ir::ClassId(class));
                    st.heap.pin(obj); // exported — lives as long as the run
                    (obj.0.to_le_bytes().to_vec(), None)
                };
                rt.net.send(my, from, Packet::Reply { req_id, payload, err });
            }
            Packet::Request { req_id: req, from, site, target_obj, payload, oneway } => {
                // A one-way request's queue phase opens the moment the
                // drainer has it and closes when its handler starts on the
                // new thread. A two-way request is served right here: its
                // queue phase is empty, stamped by its handler's start.
                let queued = || rt.call(my, req, site).boundary(&[Mark::Begin(Phase::Queue)]);
                let enq_us = oneway.then(queued);
                let item = WorkItem { req, from, site, target_obj, payload, oneway, enq_us };
                if oneway {
                    let thread = ("corm-spawn", "one-way request");
                    spawn_detached(&rt, my, thread, move |interp| rmi::serve_request(interp, item));
                } else {
                    // A two-way request's failure went home in its reply.
                    let _ = rmi::serve_request(interp, item);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::runtime::{Cluster, RunOptions, RunOutcome};

    /// Run `src` on two machines: how many drain threads each started, and
    /// the outcome. `finish` has joined every one of them.
    fn run(src: &str) -> ([usize; 2], RunOutcome) {
        let module = corm_ir::compile_frontend(src).unwrap();
        let analysis = corm_analysis::analyze_module(&module, Default::default());
        let plans = corm_codegen::generate_plans(&module, &analysis, corm_codegen::OptConfig::ALL);
        let opts = RunOptions { timeline_interval_us: 0, ..Default::default() };
        let c = Cluster::start(Arc::new(module), Arc::new(plans), &opts);
        assert_eq!(c.run_clinits(), None);
        let main = c.rt.module.main;
        let error = Interp::new(c.rt.clone(), 0).run_function(main, Vec::new()).err();
        let started = [0, 1].map(|m| c.rt.machine(m).drain.state.lock().threads.len());
        let rt = c.rt.clone();
        let out = c.finish(error);
        for machine in &rt.machines {
            let st = machine.drain.state.lock();
            assert!(st.closed && !st.held, "machine {}", machine.id);
            assert_eq!((st.threads.len(), st.followers), (0, 0), "machine {}", machine.id);
        }
        (started, out)
    }

    /// Machine 1's `nap` sleeps in every call, so each call hands the role
    /// on; the napping thread is queued again before its reply leaves, so
    /// the next call finds it and no third thread is ever started.
    #[test]
    fn sequential_waiting_handlers_keep_two_drain_threads_and_finish_joins_them() {
        let (started, out) = run(r#"
            remote class R { int nap(int x) { System.sleepMicros(20); return x + 1; } }
            class M {
                static void main() {
                    R r = new R() @ 1;
                    int acc = 0;
                    for (int i = 0; i < 200; i++) { acc = r.nap(acc); }
                    System.println(Str.fromLong(acc));
                }
            }
        "#);
        assert_eq!((out.error, out.output.as_str()), (None, "200\n"));
        assert_eq!(started, [1, 2], "200 naps, one thread to hand the role to");
    }

    /// A queue operation that finds room, or an item, does not wait: the
    /// handler keeps the role and no thread is started.
    #[test]
    fn a_queue_operation_that_need_not_wait_keeps_the_drain_role() {
        let (started, out) = run(r#"
            remote class R { int f(int n) { Queue q = new Queue(1); q.put(null); q.take(); return n; } }
            class M {
                static void main() {
                    R r = new R() @ 1;
                    System.println(Str.fromLong(r.f(1)));
                }
            }
        "#);
        assert_eq!((out.error, out.output.as_str()), (None, "1\n"));
        assert_eq!(started, [1, 1]);
    }
}
