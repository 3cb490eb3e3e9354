//! The runtime cycle-detection handle table (paper §1/§3.2).
//!
//! "Because a to-be-serialized object may contain a reference to itself or
//! to a previously serialized object, a hash-table is maintained ... The
//! costs involved in cycle detection are thus: the creation and deletion
//! of a hash-table, adding every single object reference to that
//! hash-table and finally, checking if an object has already been
//! serialized."
//!
//! Every lookup is counted; the static cycle-freedom analysis (§3.2) lets
//! the generated serializer skip this table entirely, which is exactly
//! what the `cycle lookups` column of Tables 4/6/8 measures.
//!
//! The paper's cost is the price of a table, not of our hashing: the keys
//! are slab indices this machine minted, never wire data, so the table is a
//! vector indexed by [`ObjRef::index`] — one stamp per object, grown to the
//! highest index serialized (at most twice that, or 64 entries) and so
//! bounded by the local heap. A machine keeps one table per direction and
//! [`reset`](SerCycleTable::reset)s it per message: a reset starts a new
//! round, and a stamp from an older round reads as unseen, so no entry is
//! cleared.

use corm_heap::ObjRef;

/// Serializer-side identity table: object → wire handle.
#[derive(Debug)]
pub struct SerCycleTable {
    /// `stamps[i]`: the round object `i` was last serialized in and the
    /// handle it took then. 0 is never the current round, so an entry
    /// grown on demand reads as unseen.
    stamps: Vec<(u32, u32)>,
    round: u32,
    /// The handle the next first encounter takes.
    next: u32,
    lookups: u64,
}

/// A table reads nothing as seen, reset or not: the round starts at 1.
/// `machine::lend` leaves a default table behind it.
impl Default for SerCycleTable {
    fn default() -> Self {
        SerCycleTable { stamps: Vec::new(), round: 1, next: 0, lookups: 0 }
    }
}

impl SerCycleTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the table for the next message, at the cost of one increment:
    /// handles and the lookup count start at zero again. When the round
    /// wraps, every stamp goes back to 0, so no stamp from 2^32 rounds ago
    /// reads as current, and it restarts at 1 (as `Heap::start_claims`).
    pub fn reset(&mut self) {
        self.round = self.round.checked_add(1).unwrap_or_else(|| {
            self.stamps.iter_mut().for_each(|s| s.0 = 0);
            1
        });
        self.next = 0;
        self.lookups = 0;
    }

    /// Check whether `obj` was already serialized; if not, assign it the
    /// next handle. Returns `Ok(handle)` for hits, `Err(new_handle)` for
    /// first encounters. Each call is one counted lookup.
    #[inline]
    pub fn check(&mut self, obj: ObjRef) -> Result<u32, u32> {
        self.lookups += 1;
        let i = obj.index();
        if i >= self.stamps.len() {
            self.grow(i);
        }
        let stamp = &mut self.stamps[i];
        if stamp.0 == self.round {
            return Ok(stamp.1);
        }
        let handle = self.next;
        *stamp = (self.round, handle);
        self.next += 1;
        Err(handle)
    }

    /// Make room for index `i`: 64 entries at least, and at least double,
    /// so a walk up a fresh heap grows the table a few times, not once per
    /// object. New entries are stamped with round 0.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        self.stamps.resize((i + 1).max(2 * self.stamps.len()).max(64), (0, 0));
    }

    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Objects seen since the last reset.
    pub fn len(&self) -> usize {
        self.next as usize
    }

    pub fn is_empty(&self) -> bool {
        self.next == 0
    }
}

/// Deserializer-side table: wire handle → reconstructed object.
#[derive(Debug, Default)]
pub struct DeserTable {
    objs: Vec<ObjRef>,
}

impl DeserTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the table for the next message, keeping its capacity.
    pub fn reset(&mut self) {
        self.objs.clear();
    }

    #[inline]
    pub fn register(&mut self, obj: ObjRef) -> u32 {
        self.objs.push(obj);
        self.objs.len() as u32 - 1
    }

    #[inline]
    pub fn lookup(&self, handle: u32) -> Option<ObjRef> {
        self.objs.get(handle as usize).copied()
    }

    pub fn len(&self) -> usize {
        self.objs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_encounter_assigns_sequential_handles() {
        let mut t = SerCycleTable::new();
        assert_eq!(t.check(ObjRef(10)), Err(0));
        assert_eq!(t.check(ObjRef(20)), Err(1));
        assert_eq!(t.check(ObjRef(10)), Ok(0));
        assert_eq!(t.lookups(), 3);
    }

    #[test]
    fn deser_table_roundtrip() {
        let mut d = DeserTable::new();
        let h0 = d.register(ObjRef(5));
        let h1 = d.register(ObjRef(6));
        assert_eq!(d.lookup(h0), Some(ObjRef(5)));
        assert_eq!(d.lookup(h1), Some(ObjRef(6)));
        assert_eq!(d.lookup(99), None);
    }

    /// A self-loop serializes as: first encounter, then the recursive
    /// visit of the same object must hit the table with the same handle.
    #[test]
    fn self_loop_hits_own_handle() {
        let mut t = SerCycleTable::new();
        let obj = ObjRef(7);
        assert_eq!(t.check(obj), Err(0));
        assert_eq!(t.check(obj), Ok(0), "the back edge must resolve to the original handle");
        assert_eq!(t.len(), 1, "one object, one entry, however many visits");
        assert_eq!(t.lookups(), 2);
    }

    /// Two slots of one array holding the same object ([t, u, u]): the
    /// second slot must come back as a hit so the deserializer rebuilds
    /// the sharing instead of duplicating the object.
    #[test]
    fn two_array_slots_one_object_share_a_handle() {
        let mut t = SerCycleTable::new();
        let distinct = ObjRef(1);
        let shared = ObjRef(2);
        assert_eq!(t.check(distinct), Err(0)); // slot 0
        assert_eq!(t.check(shared), Err(1)); // slot 1
        assert_eq!(t.check(shared), Ok(1), "slot 2 aliases slot 1");
        let mut d = DeserTable::new();
        let a = ObjRef(100);
        let b = ObjRef(200);
        assert_eq!(d.register(a), 0);
        assert_eq!(d.register(b), 1);
        assert_eq!(d.lookup(1), Some(b), "the aliased slot must resolve to the same replica");
        assert_eq!(d.len(), 2, "only two objects materialize for three slots");
    }

    /// Tables are per-message: a fresh pair must not remember handles from
    /// a previous send, or stale handles would alias unrelated objects.
    #[test]
    fn tables_reset_between_messages() {
        let obj = ObjRef(42);
        let mut t = SerCycleTable::new();
        assert_eq!(t.check(obj), Err(0));
        assert_eq!(t.check(obj), Ok(0));
        // next message: new table
        let mut t2 = SerCycleTable::new();
        assert!(t2.is_empty());
        assert_eq!(t2.lookups(), 0, "lookup counter starts at zero per table");
        assert_eq!(t2.check(obj), Err(0), "same object is a first encounter again");
        let mut d2 = DeserTable::new();
        assert!(d2.is_empty());
        assert_eq!(d2.register(ObjRef(9)), 0, "handles restart at zero per message");
        // or: the same table, reset
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.lookups(), 0, "reset zeroes the lookup counter");
        assert_eq!(t.check(obj), Err(0));
        d2.reset();
        assert!(d2.is_empty());
        assert_eq!(d2.register(ObjRef(10)), 0);
    }

    /// A stamp from 2^32 rounds ago does not read as current: the wrap
    /// clears every stamp before the round restarts at 1.
    #[test]
    fn a_stamp_from_before_the_round_wrap_reads_as_unseen() {
        let mut t = SerCycleTable::new();
        let (a, b) = (ObjRef(0), ObjRef(1));
        assert_eq!(t.check(a), Err(0), "round 1 stamps `a`");
        t.round = u32::MAX;
        assert_eq!(t.check(b), Err(1), "the last round before the wrap stamps `b`");
        t.reset();
        assert_eq!(t.round, 1, "the round restarts at 1");
        assert_eq!(t.check(a), Err(0), "round 1's stamp on `a` was cleared");
        assert_eq!(t.check(b), Err(1));
        assert_eq!(t.check(a), Ok(0));
    }

    /// The table grows to the highest index it is handed, and every index
    /// below it reads as unseen.
    #[test]
    fn a_sparse_high_index_is_its_own_entry() {
        let mut t = SerCycleTable::new();
        let high = ObjRef(1 << 16);
        assert_eq!(t.check(high), Err(0));
        assert_eq!(t.check(ObjRef(7)), Err(1), "an index below it is unseen");
        assert_eq!(t.check(high), Ok(0));
        assert_eq!(t.stamps.len(), (1 << 16) + 1);
        t.reset();
        assert_eq!(t.check(ObjRef((1 << 16) - 1)), Err(0), "reset keeps the room, not the stamps");
        assert_eq!(t.check(high), Err(1));
    }

    /// The table `machine::lend` leaves behind is a default one, and the
    /// next message resets it before use: it must read nothing as seen,
    /// whether or not it was reset.
    #[test]
    fn a_default_table_reads_nothing_as_seen() {
        let mut t = SerCycleTable::default();
        assert_eq!(t.check(ObjRef(0)), Err(0), "round 0 is never current");
        let mut t = SerCycleTable::default();
        t.reset();
        for (handle, i) in [3, 0, 9].into_iter().enumerate() {
            assert_eq!(t.check(ObjRef(i)), Err(handle as u32), "obj#{i} was never serialized");
        }
    }

    /// Handles restart at 0 after a reset, in the order of first encounter,
    /// whatever handles the objects took before.
    #[test]
    fn handles_restart_at_zero_after_a_reset() {
        let mut t = SerCycleTable::new();
        for i in 0..4 {
            assert_eq!(t.check(ObjRef(i)), Err(i));
        }
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.check(ObjRef(3)), Err(0));
        assert_eq!(t.check(ObjRef(1)), Err(1));
        assert_eq!(t.check(ObjRef(3)), Ok(0));
        assert_eq!((t.len(), t.lookups()), (2, 3));
    }
}
