//! Runtime values.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use corm_ir::ClassId;

/// Index of an object within one machine's heap slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(pub u32);

impl ObjRef {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The hasher of [`ObjMap`] / [`ObjSet`]: one rotate, xor and multiply per
/// word (rustc's Fx mix), where `std`'s default is a keyed SipHash. Sound
/// only for keys an attacker cannot choose: an [`ObjRef`] is a slab index
/// this machine's own allocator minted, never a value read off the wire. A
/// map keyed by anything a packet carries keeps `RandomState`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ObjHasher(u64);

impl Hasher for ObjHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An identity map over locally minted [`ObjRef`]s (see `ObjHasher`).
pub type ObjMap<V> = HashMap<ObjRef, V, BuildHasherDefault<ObjHasher>>;
/// An identity set over locally minted [`ObjRef`]s (see `ObjHasher`).
pub type ObjSet = HashSet<ObjRef, BuildHasherDefault<ObjHasher>>;

impl std::fmt::Display for ObjRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A reference to a `remote class` instance living on some machine.
/// RMI passes these by reference (the paper's `serialize_remote_ref`),
/// while ordinary objects are passed by deep copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteRef {
    pub machine: u16,
    pub obj: ObjRef,
    pub class: ClassId,
}

/// A tagged runtime value. `Ref` is machine-local; `Remote` is a
/// cross-machine remote-object handle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Int(i32),
    Long(i64),
    Double(f64),
    Ref(ObjRef),
    Remote(RemoteRef),
}

impl Value {
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, found {other:?}"),
        }
    }

    pub fn as_long(&self) -> i64 {
        match self {
            Value::Long(v) => *v,
            Value::Int(v) => *v as i64,
            other => panic!("expected long, found {other:?}"),
        }
    }

    pub fn as_double(&self) -> f64 {
        match self {
            Value::Double(v) => *v,
            Value::Int(v) => *v as f64,
            Value::Long(v) => *v as f64,
            other => panic!("expected double, found {other:?}"),
        }
    }

    pub fn as_ref(&self) -> Option<ObjRef> {
        match self {
            Value::Ref(r) => Some(*r),
            _ => None,
        }
    }
}
