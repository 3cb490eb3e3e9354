//! MiniParty's scalar semantics, once: int, long, double and boolean
//! arithmetic, comparison, `Neg` / `Not`, numeric conversion and the zero of
//! each type, with Java's rules (two's-complement wrap, shift counts masked
//! to 5 or 6 bits, division truncating toward zero, IEEE doubles).
//!
//! Two callers apply them. The constant folder ([`crate::opt`]) applies them
//! to [`Const`] operands at compile time, and the interpreter (`corm-vm`) to
//! its values at run time: its typed ops call the payload functions below,
//! and its tagged fallbacks call [`binary`], [`unary`] and [`convert`]. So
//! what folds is what runs. `None` is an operation these rules leave
//! undefined (division by zero, `<` on booleans, a bitwise op on doubles,
//! operands of different types). The folder leaves such an instruction for
//! the interpreter, which raises it.
//!
//! [`mix`] is the `Rng` builtin's splitmix64 step; the rest of the workspace
//! hashes and draws seeded streams with it too.

use crate::cfg::{BinKind, Const, UnKind};
use crate::classes::Ty;

/// splitmix64's increment, the golden ratio in 64 bits.
pub const GOLDEN_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// The splitmix64 finalizer (Steele, Lea & Flood; the JDK
/// `SplittableRandom` mixer) of `z + GOLDEN_GAMMA`: the value a splitmix64
/// stream in state `z` draws next.
#[inline]
pub fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What a field, a static or a register of type `ty` holds before anything
/// is stored in it.
#[inline]
pub fn zero(ty: &Ty) -> Const {
    match ty {
        Ty::Bool => Const::Bool(false),
        Ty::Int => Const::Int(0),
        Ty::Long => Const::Long(0),
        Ty::Double => Const::Double(0.0),
        _ => Const::Null,
    }
}

/// `op a` on a scalar.
#[inline]
pub fn unary(op: UnKind, a: Const) -> Option<Const> {
    Some(match (op, a) {
        (UnKind::Neg, Const::Int(x)) => Const::Int(x.wrapping_neg()),
        (UnKind::Neg, Const::Long(x)) => Const::Long(x.wrapping_neg()),
        (UnKind::Neg, Const::Double(x)) => Const::Double(-x),
        (UnKind::Not, Const::Bool(b)) => Const::Bool(!b),
        _ => return None,
    })
}

/// `a op b` on two scalars of one type.
#[inline]
pub fn binary(op: BinKind, a: Const, b: Const) -> Option<Const> {
    Some(match (a, b) {
        (Const::Int(x), Const::Int(y)) => match compare(op, x, y) {
            Some(c) => Const::Bool(c),
            None => Const::Int(int_arith(op, x, y)?),
        },
        (Const::Long(x), Const::Long(y)) => match compare(op, x, y) {
            Some(c) => Const::Bool(c),
            None => Const::Long(long_arith(op, x, y)?),
        },
        (Const::Double(x), Const::Double(y)) => match compare(op, x, y) {
            Some(c) => Const::Bool(c),
            None => Const::Double(double_arith(op, x, y)?),
        },
        (Const::Bool(x), Const::Bool(y)) => match op {
            BinKind::Eq => Const::Bool(x == y),
            BinKind::Ne => Const::Bool(x != y),
            _ => return None,
        },
        _ => return None,
    })
}

/// `(to) a` for a numeric `a` and a numeric `to`: Java's widening and
/// narrowing conversions, which Rust's `as` computes exactly (an int keeps its
/// low bits; a double truncates toward zero, saturates, and takes NaN to 0).
#[inline]
pub fn convert(a: Const, to: &Ty) -> Option<Const> {
    Some(match (a, to) {
        (Const::Int(x), Ty::Int) => Const::Int(x),
        (Const::Int(x), Ty::Long) => Const::Long(x as i64),
        (Const::Int(x), Ty::Double) => Const::Double(x as f64),
        (Const::Long(x), Ty::Int) => Const::Int(x as i32),
        (Const::Long(x), Ty::Long) => Const::Long(x),
        (Const::Long(x), Ty::Double) => Const::Double(x as f64),
        (Const::Double(x), Ty::Int) => Const::Int(x as i32),
        (Const::Double(x), Ty::Long) => Const::Long(x as i64),
        (Const::Double(x), Ty::Double) => Const::Double(x),
        _ => return None,
    })
}

/// `x op y` for a comparison `op`; `None` for any other operator.
#[inline]
pub fn compare<T: PartialOrd>(op: BinKind, x: T, y: T) -> Option<bool> {
    use BinKind::*;
    Some(match op {
        Eq => x == y,
        Ne => x != y,
        Lt => x < y,
        Le => x <= y,
        Gt => x > y,
        Ge => x >= y,
        _ => return None,
    })
}

/// `x op y` for an arithmetic or bitwise `op` on ints; `None` on division by
/// zero or a comparison.
#[inline]
pub fn int_arith(op: BinKind, x: i32, y: i32) -> Option<i32> {
    use BinKind::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div if y != 0 => x.wrapping_div(y),
        Rem if y != 0 => x.wrapping_rem(y),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32 & 31),
        Shr => x.wrapping_shr(y as u32 & 31),
        Div | Rem | Eq | Ne | Lt | Le | Gt | Ge => return None,
    })
}

/// `x op y` for an arithmetic or bitwise `op` on longs; `None` on division by
/// zero or a comparison.
#[inline]
pub fn long_arith(op: BinKind, x: i64, y: i64) -> Option<i64> {
    use BinKind::*;
    Some(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div if y != 0 => x.wrapping_div(y),
        Rem if y != 0 => x.wrapping_rem(y),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Shl => x.wrapping_shl(y as u32 & 63),
        Shr => x.wrapping_shr(y as u32 & 63),
        Div | Rem | Eq | Ne | Lt | Le | Gt | Ge => return None,
    })
}

/// `x op y` for an arithmetic `op` on doubles; `None` for a bitwise one or a
/// comparison.
#[inline]
pub fn double_arith(op: BinKind, x: f64, y: f64) -> Option<f64> {
    use BinKind::*;
    Some(match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Rem => x % y,
        _ => return None,
    })
}
