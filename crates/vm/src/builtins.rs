//! Native methods: `System`, `Math`, `Cluster`, `Rng`, `Queue` and the
//! `String` instance methods.

use corm_heap::{NativeData, ObjBody, Value};
use corm_ir::{scalar, Builtin};
use parking_lot::MutexGuard;

use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::machine::MachineState;

pub fn call(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    b: Builtin,
    argv: &[Value],
) -> VmResult<Value> {
    use Builtin::*;
    match b {
        Println | Print => {
            let s = match argv[0] {
                Value::Null => "null".to_string(),
                Value::Ref(r) => guard.heap.str_value(r).map_err(VmError::from)?.to_string(),
                other => return Err(VmError::new(format!("println on {other:?}"))),
            };
            if b == Println {
                interp.rt.print(&format!("{s}\n"));
            } else {
                interp.rt.print(&s);
            }
            Ok(Value::Null)
        }
        TimeMicros => Ok(Value::Long(interp.rt.now_us() as i64)),
        SleepMicros => {
            interp.about_to_wait();
            let us = argv[0].as_long().max(0) as u64;
            let sleep = || std::thread::sleep(std::time::Duration::from_micros(us));
            interp.unlocked(guard, || (), |_| sleep());
            Ok(Value::Null)
        }
        Gc => {
            interp.collect(guard, &[]);
            Ok(Value::Null)
        }

        Sqrt => Ok(Value::Double(argv[0].as_double().sqrt())),
        DAbs => Ok(Value::Double(argv[0].as_double().abs())),
        LMin => Ok(Value::Long(argv[0].as_long().min(argv[1].as_long()))),
        LMax => Ok(Value::Long(argv[0].as_long().max(argv[1].as_long()))),

        ClusterMachines => Ok(Value::Int(interp.rt.machines.len() as i32)),
        ClusterMy => Ok(Value::Int(interp.machine_id() as i32)),
        ClusterBarrier => {
            interp.about_to_wait();
            // Exactly one thread per machine participates; release the
            // machine lock while parked.
            interp.unlocked(guard, || (), |me| me.rt.barrier.wait());
            Ok(Value::Null)
        }
        ClusterArg => {
            let i = interp.int_of(argv[0])?;
            let v = interp
                .rt
                .args
                .get(i as usize)
                .copied()
                .ok_or_else(|| VmError::new(format!("Cluster.arg({i}) out of range")))?;
            Ok(Value::Long(v))
        }

        RngCtor => {
            let this = interp.obj_of(argv[0])?;
            let seed = argv[1].as_long() as u64;
            match guard.heap.body_mut(this).map_err(VmError::from)? {
                ObjBody::Native { data, .. } => *data = NativeData::Rng(seed ^ 0x9E3779B97F4A7C15),
                other => return Err(VmError::new(format!("Rng ctor on {other:?}"))),
            }
            Ok(Value::Null)
        }
        RngNextInt => {
            let bound = interp.int_of(argv[1])?;
            if bound <= 0 {
                return Err(VmError::new(format!("Rng.nextInt bound {bound} must be positive")));
            }
            let r = next_rng(interp, guard, argv[0])?;
            Ok(Value::Int((r % bound as u64) as i32))
        }
        RngNextLong => {
            let r = next_rng(interp, guard, argv[0])?;
            Ok(Value::Long(r as i64))
        }
        RngNextDouble => {
            let r = next_rng(interp, guard, argv[0])?;
            Ok(Value::Double((r >> 11) as f64 / (1u64 << 53) as f64))
        }

        QueueCtor => {
            let this = interp.obj_of(argv[0])?;
            let cap = interp.int_of(argv[1])?;
            if cap <= 0 {
                return Err(VmError::new("Queue capacity must be positive"));
            }
            let id = guard.new_queue(cap as usize);
            match guard.heap.body_mut(this).map_err(VmError::from)? {
                ObjBody::Native { data, .. } => *data = NativeData::Queue(id),
                other => return Err(VmError::new(format!("Queue ctor on {other:?}"))),
            }
            Ok(Value::Null)
        }
        QueuePut => {
            let q = queue_id(interp, guard, argv[0])?;
            let v = argv[1];
            loop {
                let queue = guard.queue(q)?;
                if queue.items.len() < queue.cap {
                    queue.items.push_back(v);
                    guard.wake |= guard.queue_sleepers > 0;
                    return Ok(Value::Null);
                }
                interp.about_to_wait();
                queue_wait(interp, guard);
            }
        }
        QueueTake => {
            let q = queue_id(interp, guard, argv[0])?;
            loop {
                let queue = guard.queue(q)?;
                if let Some(v) = queue.items.pop_front() {
                    guard.wake |= guard.queue_sleepers > 0;
                    return Ok(v);
                }
                interp.about_to_wait();
                queue_wait(interp, guard);
            }
        }
        QueueSize => {
            let q = queue_id(interp, guard, argv[0])?;
            Ok(Value::Int(guard.queue(q)?.items.len() as i32))
        }

        StrLength => {
            let s = str_of(guard, argv[0])?;
            Ok(Value::Int(s.chars().count() as i32))
        }
        StrHash => Ok(Value::Int(string_hash(str_of(guard, argv[0])?))),
        StrEquals => {
            let a = str_of(guard, argv[0])?.to_string();
            let eq = match argv[1] {
                Value::Ref(r) => match guard.heap.body(r).map_err(VmError::from)? {
                    ObjBody::Str(s) => **s == *a,
                    _ => false,
                },
                _ => false,
            };
            Ok(Value::Bool(eq))
        }
        StrConcat => {
            let mut a = str_of(guard, argv[0])?.to_string();
            let b = str_of(guard, argv[1])?;
            a.push_str(b);
            Ok(Value::Ref(guard.heap.alloc_str(a)))
        }
        StrCharAt => {
            let i = interp.int_of(argv[1])?;
            let s = str_of(guard, argv[0])?;
            match s.chars().nth(i.max(0) as usize) {
                Some(c) => Ok(Value::Int(c as i32)),
                None => Err(VmError::new(format!("charAt({i}) out of range"))),
            }
        }
        StrSubstring => {
            let from = interp.int_of(argv[1])?.max(0) as usize;
            let to = interp.int_of(argv[2])?.max(0) as usize;
            let s = str_of(guard, argv[0])?;
            let out: String = s.chars().skip(from).take(to.saturating_sub(from)).collect();
            Ok(Value::Ref(guard.heap.alloc_str(out)))
        }
        StrFromLong => {
            let v = argv[0].as_long();
            Ok(Value::Ref(guard.heap.alloc_str(v.to_string())))
        }
        StrFromDouble => {
            let v = argv[0].as_double();
            Ok(Value::Ref(guard.heap.alloc_str(format!("{v}"))))
        }
    }
}

fn str_of<'a>(guard: &'a MutexGuard<'_, MachineState>, v: Value) -> Result<&'a str, VmError> {
    match v {
        Value::Ref(r) => Ok(guard.heap.str_value(r).map_err(VmError::from)?),
        Value::Null => Err(VmError::new("null dereference on String")),
        other => Err(VmError::new(format!("expected String, found {other:?}"))),
    }
}

/// Sleep on the machine's condvar until a `Queue.put` or `take` wakes the
/// machine's queue sleepers, counted meanwhile so that one does.
fn queue_wait(interp: &mut Interp, guard: &mut MutexGuard<'_, MachineState>) {
    guard.queue_sleepers += 1;
    interp.off_lock(guard, |me, g| me.machine.cv.wait(g));
    guard.queue_sleepers -= 1;
}

fn queue_id(interp: &Interp, guard: &MutexGuard<'_, MachineState>, v: Value) -> VmResult<u32> {
    let r = interp.obj_of(v)?;
    match guard.heap.body(r).map_err(VmError::from)? {
        ObjBody::Native { data: NativeData::Queue(id), .. } => Ok(*id),
        _ => Err(VmError::new("not a Queue")),
    }
}

fn next_rng(interp: &Interp, guard: &mut MutexGuard<'_, MachineState>, v: Value) -> VmResult<u64> {
    let r = interp.obj_of(v)?;
    match guard.heap.body_mut(r).map_err(VmError::from)? {
        ObjBody::Native { data: NativeData::Rng(state), .. } => Ok(splitmix64(state)),
        _ => Err(VmError::new("not a Rng")),
    }
}

/// Java's `String.hashCode`: what `Str.hashCode` returns, and how `serve`
/// routes a URL, as the in-language master does.
pub(crate) fn string_hash(s: &str) -> i32 {
    s.chars().fold(0i32, |h, c| h.wrapping_mul(31).wrapping_add(c as i32))
}

/// One draw of a splitmix64 stream ([`scalar::mix`]), advancing `state` —
/// small, fast, good-enough PRNG for the workloads, for `serve`'s arrival
/// schedule and for the fuzzer's program generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    let z = scalar::mix(*state);
    *state = state.wrapping_add(scalar::GOLDEN_GAMMA);
    z
}

#[cfg(test)]
mod tests {
    #[test]
    fn splitmix_sequence_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            assert_eq!(super::splitmix64(&mut a), super::splitmix64(&mut b));
        }
        let mut c = 43u64;
        assert_ne!(super::splitmix64(&mut a), super::splitmix64(&mut c));
        // The published splitmix64 stream from state 0.
        let mut z = 0u64;
        assert_eq!(
            [(); 3].map(|_| super::splitmix64(&mut z)),
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        );
    }
}
