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
//! are slab indices this machine minted, so the map is an [`ObjMap`], and a
//! machine keeps one table per direction and [`reset`](SerCycleTable::reset)s
//! it per message instead of growing a new one from empty.

use corm_heap::{ObjMap, ObjRef};

/// Serializer-side identity table: object → wire handle.
#[derive(Debug, Default)]
pub struct SerCycleTable {
    map: ObjMap<u32>,
    lookups: u64,
}

impl SerCycleTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the table for the next message, keeping its capacity: handles
    /// and the lookup count start at zero again.
    pub fn reset(&mut self) {
        self.map.clear();
        self.lookups = 0;
    }

    /// Check whether `obj` was already serialized; if not, assign it the
    /// next handle. Returns `Ok(handle)` for hits, `Err(new_handle)` for
    /// first encounters. Each call is one counted lookup.
    #[inline]
    pub fn check(&mut self, obj: ObjRef) -> Result<u32, u32> {
        self.lookups += 1;
        let next = self.map.len() as u32;
        match self.map.entry(obj) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(*e.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(next);
                Err(next)
            }
        }
    }

    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
}
