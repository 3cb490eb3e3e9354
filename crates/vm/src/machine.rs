//! Per-machine state: heap, statics, native queues and the §3.3 reuse
//! caches under the machine lock; the reply table beside it.

use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};

use corm_heap::{GcReport, Heap, ObjRef, Value};
use corm_ir::{scalar, CallSiteId, ClassId, ClassTable};
use corm_wire::{DeserTable, SerCycleTable};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::drain::DrainRole;
use crate::error::{VmError, VmResult};
use crate::interp::Stack;
use crate::link::value_of;
use crate::reply::ReplyTable;

/// A native blocking queue (`Queue` builtin).
#[derive(Debug, Default)]
pub struct VmQueue {
    pub cap: usize,
    pub items: VecDeque<Value>,
}

/// One §3.3 reuse slot: where the root of a dead deserialized graph waits
/// for the next message through the same unmarshaler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseSlot {
    /// Callee side: argument `arg` of `site` as machine `caller` last
    /// sent it — the paper's `temp_arr` static (Fig. 13), one per
    /// unmarshaler per caller. Handlers serving different callers run
    /// concurrently and never share a slot, so what a caller's next
    /// message recycles does not depend on how they interleave.
    Arg { site: CallSiteId, arg: usize, caller: u16 },
    /// Caller side: the return value of `site`.
    Ret { site: CallSiteId },
}

/// Everything a machine owns, guarded by one lock (the per-machine "big
/// lock"; blocking operations release it and wait on the condvar).
pub struct MachineState {
    pub heap: Heap,
    pub statics: Vec<Value>,
    pub queues: Vec<VmQueue>,
    /// The §3.3 reuse caches: pinned roots of dead graphs, by slot.
    pub reuse_cache: HashMap<ReuseSlot, Value>,
    pub next_req: u64,
    /// VM threads currently executing (or blocked) on this machine. A
    /// gauge: no decision reads it.
    pub active_threads: usize,
    /// The stack of every VM thread that is off the machine lock in the
    /// middle of an activity (`Interp::off_lock`), and as a stack with no
    /// frame the arguments of every spawned thread that has not started
    /// (`Interp::spawn`): roots the collecting thread cannot otherwise see.
    pub(crate) parked: HashMap<u64, Stack>,
    /// Interned string literals (pinned), keyed by `StrId`.
    pub lit_strings: HashMap<u32, ObjRef>,
    /// The identity tables of one message, one per direction, kept between
    /// messages so their capacity is grown once (DESIGN §5.3). A message
    /// borrows them with [`lend`] and puts them back.
    pub(crate) ser_table: SerCycleTable,
    pub(crate) deser_table: DeserTable,
    /// Threads asleep in `Queue.put` or `take`, on `MachineShared::cv`.
    pub(crate) queue_sleepers: usize,
    /// A `Queue.put` or `take` changed a queue while a thread slept in one:
    /// `MachineShared::cv` is notified once the holder lets go of the lock
    /// (DESIGN §5.9 lists where), not while it still holds it, which a woken
    /// sibling would only block on.
    pub(crate) wake: bool,
}

/// Lend a table the machine keeps to one message, reset. What it leaves
/// behind is empty: a second borrower before it comes back starts afresh,
/// so no message's correctness depends on the kept table.
pub(crate) fn lend<T: Default>(kept: &mut T, reset: impl FnOnce(&mut T)) -> T {
    let mut table = std::mem::take(kept);
    reset(&mut table);
    table
}

impl MachineState {
    /// Per-type zero defaults for every static variable of `table`.
    pub fn static_defaults(table: &ClassTable) -> Vec<Value> {
        let mut defaults = vec![Value::Null; table.num_statics];
        for f in &table.fields {
            if let Some(sid) = f.static_id {
                defaults[sid.index()] = value_of(scalar::zero(&f.ty));
            }
        }
        defaults
    }

    pub fn with_statics(statics: Vec<Value>) -> Self {
        MachineState {
            heap: Heap::new(),
            statics,
            queues: Vec::new(),
            reuse_cache: HashMap::new(),
            next_req: 1,
            active_threads: 0,
            parked: HashMap::new(),
            lit_strings: HashMap::new(),
            ser_table: SerCycleTable::new(),
            deser_table: DeserTable::new(),
            queue_sleepers: 0,
            wake: false,
        }
    }

    pub fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Allocate a user-class instance with per-type zero defaults.
    pub fn alloc_zeroed(&mut self, table: &ClassTable, class: ClassId) -> ObjRef {
        let layout = &table.class(class).layout;
        let obj = self.heap.alloc_obj(class, layout.len());
        for (slot, &fid) in layout.iter().enumerate() {
            let v = value_of(scalar::zero(&table.field(fid).ty));
            // fresh objects always have valid slots
            self.heap.set_field(obj, slot, v).expect("fresh object slot");
        }
        obj
    }

    /// Take (and clear) a reuse candidate — Fig. 13's `temp_arr = null`
    /// guard against concurrent unmarshalers. The pin belongs to the cache
    /// and goes with the entry: a candidate the deserializer rejects, or
    /// whose call fails before `put_reuse`, is garbage like any dead graph;
    /// one it recycles is held by the handler's frame, as a fresh one is.
    pub fn take_reuse(&mut self, slot: ReuseSlot) -> Value {
        let v = self.reuse_cache.remove(&slot).unwrap_or(Value::Null);
        if let Value::Ref(root) = v {
            self.heap.unpin(root);
        }
        v
    }

    /// Fig. 13's `temp_arr = t`: cache `v` in `slot`, moving the GC pin
    /// from the root it displaces (if any) to `v`.
    pub fn put_reuse(&mut self, slot: ReuseSlot, v: Value) {
        if let Some(Value::Ref(old)) = self.reuse_cache.insert(slot, v) {
            if Value::Ref(old) != v {
                self.heap.unpin(old);
            }
        }
        if let Value::Ref(r) = v {
            self.heap.pin(r);
        }
    }

    // ----- native queues ----------------------------------------------------

    pub fn new_queue(&mut self, cap: usize) -> u32 {
        self.queues.push(VmQueue { cap: cap.max(1), items: VecDeque::new() });
        self.queues.len() as u32 - 1
    }

    pub fn queue(&mut self, id: u32) -> VmResult<&mut VmQueue> {
        self.queues
            .get_mut(id as usize)
            .ok_or_else(|| VmError::new(format!("bad queue handle {id}")))
    }

    /// GC roots outside thread frames: statics, queue contents and the
    /// heap pin set (exports + reuse caches are pinned).
    pub fn external_roots(&self) -> Vec<ObjRef> {
        let mut roots = Vec::new();
        for v in &self.statics {
            if let Value::Ref(r) = v {
                roots.push(*r);
            }
        }
        for q in &self.queues {
            for v in &q.items {
                if let Value::Ref(r) = v {
                    roots.push(*r);
                }
            }
        }
        roots
    }

    /// Collect with every root the machine has: the `running` thread's own
    /// registers and the values it holds `in_flight` outside any frame, the
    /// registers parked here by every other thread, [`Self::external_roots`],
    /// and (inside [`Heap::gc`]) the pin set.
    pub(crate) fn collect(&mut self, running: &[Value], in_flight: &[Value]) -> GcReport {
        let external = self.external_roots();
        let parked = self.parked.values().flat_map(|s| &s.regs);
        let held = running.iter().chain(parked).chain(in_flight).filter_map(|v| v.as_ref());
        self.heap.gc(held.chain(external))
    }
}

/// One simulated machine: its state under the machine lock, the condvar
/// `Queue` operations block on, and — beside the lock — the reply table and
/// the drain role.
pub struct MachineShared {
    pub id: u16,
    pub state: Mutex<MachineState>,
    pub cv: Condvar,
    pub pending: ReplyTable,
    pub(crate) drain: DrainRole,
}

/// A VM thread's stay on a machine: the machine lock, with the thread
/// counted in [`MachineState::active_threads`] until the guard drops —
/// on every path out — and a `Queue` wake still pending then delivered
/// after the unlock. Blocking operations release the lock through it and
/// stay counted.
pub struct Entered<'a> {
    guard: Option<MutexGuard<'a, MachineState>>,
    cv: &'a Condvar,
}

impl<'a> Deref for Entered<'a> {
    type Target = MutexGuard<'a, MachineState>;
    fn deref(&self) -> &Self::Target {
        self.guard.as_ref().expect("entered")
    }
}

impl DerefMut for Entered<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.guard.as_mut().expect("entered")
    }
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        let mut guard = self.guard.take().expect("entered");
        guard.active_threads -= 1;
        let wake = std::mem::take(&mut guard.wake);
        drop(guard);
        if wake {
            self.cv.notify_all();
        }
    }
}

impl MachineShared {
    /// Lock the machine as a VM thread about to execute on it.
    pub fn enter(&self) -> Entered<'_> {
        let mut guard = self.state.lock();
        guard.active_threads += 1;
        Entered { guard: Some(guard), cv: &self.cv }
    }

    pub fn with_statics(id: u16, statics: Vec<Value>) -> Self {
        let mut state = MachineState::with_statics(statics);
        // Namespace request ids by machine so every RMI carries a
        // cluster-unique id (trace events of one call link across
        // machines by it). 48 bits of counter per machine.
        state.next_req = ((id as u64) << 48) + 1;
        let (pending, drain) = (ReplyTable::default(), DrainRole::default());
        MachineShared { id, state: Mutex::new(state), cv: Condvar::new(), pending, drain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::CallSiteId;

    #[test]
    fn queue_handles() {
        let mut st = MachineState::with_statics(Vec::new());
        let q = st.new_queue(2);
        st.queue(q).unwrap().items.push_back(Value::Int(1));
        assert_eq!(st.queue(q).unwrap().items.len(), 1);
        assert!(st.queue(99).is_err());
    }

    fn arg(site: u32, arg: usize, caller: u16) -> ReuseSlot {
        ReuseSlot::Arg { site: CallSiteId(site), arg, caller }
    }

    #[test]
    fn arg_cache_pins_roots() {
        let mut st = MachineState::with_statics(Vec::new());
        let o = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.put_reuse(arg(3, 0, 0), Value::Ref(o));
        // pinned: survives GC with no roots
        let rep = st.heap.gc([]);
        assert_eq!(rep.live, 1);
        // replacing the slot unpins the old root
        let o2 = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.put_reuse(arg(3, 0, 0), Value::Ref(o2));
        let rep = st.heap.gc([]);
        assert_eq!(rep.freed, 1);
    }

    #[test]
    fn take_cache_clears_slot() {
        let mut st = MachineState::with_statics(Vec::new());
        let o = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        for slot in [arg(1, 1, 0), ReuseSlot::Ret { site: CallSiteId(1) }] {
            st.put_reuse(slot, Value::Ref(o));
            assert_eq!(st.heap.pinned().count(), 1);
            assert_eq!(st.take_reuse(slot), Value::Ref(o));
            assert_eq!(st.heap.pinned().count(), 0, "the pin goes with the cache entry");
            assert_eq!(st.take_reuse(slot), Value::Null);
        }
    }

    #[test]
    fn callers_of_one_site_keep_their_own_slots() {
        // The lu interleaving: machine 1's handler runs between a take and
        // the matching put of machine 0's at the same (site, argument).
        let mut st = MachineState::with_statics(Vec::new());
        let [a, b] = [0, 1].map(|_| Value::Ref(st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0)));
        st.put_reuse(arg(7, 1, 0), a);
        st.put_reuse(arg(7, 1, 1), b);
        assert_eq!(st.take_reuse(arg(7, 1, 0)), a);
        assert_eq!(st.take_reuse(arg(7, 1, 1)), b, "caller 0's take emptied caller 1's slot");
        st.put_reuse(arg(7, 1, 1), b);
        st.put_reuse(arg(7, 1, 0), a);
        assert_eq!(st.heap.gc([]).live, 2, "neither put may unpin the other caller's root");
        // The same caller does find what it left.
        assert_eq!(st.take_reuse(arg(7, 1, 0)), a);
        assert_eq!(st.take_reuse(arg(7, 1, 1)), b);
    }

    #[test]
    fn entering_counts_the_thread_until_the_guard_drops() {
        let machine = MachineShared::with_statics(0, Vec::new());
        let early_exit = || -> VmResult<()> {
            let mut guard = machine.enter();
            assert_eq!(guard.active_threads, 1);
            guard.queue(99)?;
            unreachable!("queue 99 does not exist");
        };
        assert!(early_exit().is_err());
        assert_eq!(machine.state.lock().active_threads, 0);
    }

    #[test]
    fn external_roots_cover_statics_and_queues() {
        let mut st = MachineState::with_statics(vec![Value::Null; 2]);
        let a = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        let b = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.statics[0] = Value::Ref(a);
        let q = st.new_queue(4);
        st.queue(q).unwrap().items.push_back(Value::Ref(b));
        let roots = st.external_roots();
        assert!(roots.contains(&a) && roots.contains(&b));
    }
}
