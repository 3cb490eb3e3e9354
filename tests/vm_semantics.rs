//! Differential testing of MiniParty's arithmetic semantics: pseudo-random
//! expression trees are rendered to MiniParty, run on the VM, and compared
//! against a host-side evaluator implementing Java's `long` semantics
//! (wrapping arithmetic, masked shifts). The host evaluator shares no code
//! with the compiler or the VM: it is the oracle.
//!
//! Each case runs twice. Once with its inputs as literals: the constant
//! folder (`corm_ir::opt`) computes all of an expression at compile time
//! except what lies past a `pick` call. Once with its inputs read by
//! `Cluster.arg` at run time, which nothing can fold: the interpreter
//! computes it. Both paths call `corm_ir::scalar`, and both must agree with
//! the oracle.

use corm::{compile_and_run, OptConfig, RunOptions};
use proptest::prelude::*;

/// Run `src` on one machine, `Cluster.arg(i)` reading `args[i]`: its output,
/// or the error it raised.
fn run(src: &str, args: &[i64]) -> Result<String, String> {
    let opts = RunOptions { machines: 1, args: args.to_vec(), ..Default::default() };
    let out = compile_and_run(src, OptConfig::CLASS, opts).map_err(|e| e.to_string())?;
    match out.error {
        Some(e) => Err(format!("{e:?}")),
        None => Ok(out.output),
    }
}

/// `main` with `body` as its body.
fn main_with(body: &str) -> String {
    format!("class M {{ static void main() {{ {body} }} }}")
}

#[derive(Debug, Clone)]
enum E {
    Const(i64),
    Var(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    /// denominator rendered as `(d | 1)` so it is never zero
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Shr(Box<E>, Box<E>),
    Neg(Box<E>),
    /// `cond ? a : b` rendered via an if statement helper
    Pick(Box<E>, Box<E>, Box<E>),
    /// `a op b` for the comparison `CMP[k]`, 1 or 0 through `b2l`: a
    /// compare whose one reader is a call, so no branch fuses it
    Cmp(usize, Box<E>, Box<E>),
}

/// The six comparisons, as MiniParty spells them.
const CMP: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

/// The oracle of `a CMP[k] b`.
fn compare(k: usize, a: i64, b: i64) -> bool {
    [a == b, a != b, a < b, a <= b, a > b, a >= b][k]
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(E::Const),
        (0usize..3).prop_map(E::Var),
        Just(E::Const(i64::MAX)),
        Just(E::Const(i64::MIN)),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Shl(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Shr(a.into(), b.into())),
            inner.clone().prop_map(|a| E::Neg(a.into())),
            (0..CMP.len(), inner.clone(), inner.clone()).prop_map(|(k, a, b)| E::Cmp(
                k,
                a.into(),
                b.into()
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| E::Pick(
                c.into(),
                a.into(),
                b.into()
            )),
        ]
    })
}

fn render(e: &E) -> String {
    match e {
        // MiniParty has no negative literals; negatives render as (0 - n).
        E::Const(v) => render_const(*v),
        E::Var(i) => format!("v{i}"),
        E::Add(a, b) => format!("({} + {})", render(a), render(b)),
        E::Sub(a, b) => format!("({} - {})", render(a), render(b)),
        E::Mul(a, b) => format!("({} * {})", render(a), render(b)),
        E::Div(a, b) => format!("({} / ({} | 1))", render(a), render(b)),
        E::Rem(a, b) => format!("({} % ({} | 1))", render(a), render(b)),
        E::And(a, b) => format!("({} & {})", render(a), render(b)),
        E::Or(a, b) => format!("({} | {})", render(a), render(b)),
        E::Xor(a, b) => format!("({} ^ {})", render(a), render(b)),
        E::Shl(a, b) => format!("({} << {})", render(a), render(b)),
        E::Shr(a, b) => format!("({} >> {})", render(a), render(b)),
        E::Neg(a) => format!("(0 - {})", render(a)),
        E::Pick(c, a, b) => {
            format!("pick({} > 0, {}, {})", render(c), render(a), render(b))
        }
        E::Cmp(k, a, b) => format!("b2l({} {} {})", render(a), CMP[*k], render(b)),
    }
}

fn eval(e: &E, vars: &[i64; 3]) -> i64 {
    match e {
        E::Const(v) => *v,
        E::Var(i) => vars[*i],
        E::Add(a, b) => eval(a, vars).wrapping_add(eval(b, vars)),
        E::Sub(a, b) => eval(a, vars).wrapping_sub(eval(b, vars)),
        E::Mul(a, b) => eval(a, vars).wrapping_mul(eval(b, vars)),
        E::Div(a, b) => eval(a, vars).wrapping_div(eval(b, vars) | 1),
        E::Rem(a, b) => eval(a, vars).wrapping_rem(eval(b, vars) | 1),
        E::And(a, b) => eval(a, vars) & eval(b, vars),
        E::Or(a, b) => eval(a, vars) | eval(b, vars),
        E::Xor(a, b) => eval(a, vars) ^ eval(b, vars),
        E::Shl(a, b) => eval(a, vars).wrapping_shl(eval(b, vars) as u32 & 63),
        E::Shr(a, b) => eval(a, vars).wrapping_shr(eval(b, vars) as u32 & 63),
        E::Neg(a) => 0i64.wrapping_sub(eval(a, vars)),
        E::Pick(c, a, b) => {
            if eval(c, vars) > 0 {
                eval(a, vars)
            } else {
                eval(b, vars)
            }
        }
        E::Cmp(k, a, b) => compare(*k, eval(a, vars), eval(b, vars)) as i64,
    }
}

// Negative literals render through `(0 - x)`, but `i64::MIN`'s absolute
// value does not fit; rendering it as a decimal literal would overflow the
// parser's i64. Filter expressions whose rendering would need it.
fn renderable(e: &E) -> bool {
    match e {
        E::Const(v) => *v != i64::MIN && *v >= -(1 << 62),
        E::Var(_) => true,
        E::Add(a, b)
        | E::Sub(a, b)
        | E::Mul(a, b)
        | E::Div(a, b)
        | E::Rem(a, b)
        | E::And(a, b)
        | E::Or(a, b)
        | E::Xor(a, b)
        | E::Shl(a, b)
        | E::Shr(a, b)
        | E::Cmp(_, a, b) => renderable(a) && renderable(b),
        E::Neg(a) => renderable(a),
        E::Pick(c, a, b) => renderable(c) && renderable(a) && renderable(b),
    }
}

/// Render a long-typed literal. MiniParty infers small literals as `int`
/// (32-bit ops, 5-bit shift masks), so an explicit widening cast keeps
/// the whole expression in `long` semantics like the host evaluator.
fn render_const(v: i64) -> String {
    if v >= 0 {
        format!("((long) {v})")
    } else {
        format!("(0 - (long) {})", -(v.max(-(1 << 62))))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn long_arithmetic_matches_java_semantics(
        e in expr_strategy().prop_filter("renderable", renderable),
        vars in [(-10_000i64..10_000), (-10_000i64..10_000), (-10_000i64..10_000)],
    ) {
        let expected = eval(&e, &vars);
        let program = |inputs: [String; 3]| {
            let [v0, v1, v2] = inputs;
            format!(
                r#"
                class M {{
                    static long pick(boolean c, long a, long b) {{
                        if (c) {{ return a; }}
                        return b;
                    }}
                    static long b2l(boolean c) {{
                        if (c) {{ return (long) 1; }}
                        return (long) 0;
                    }}
                    static void main() {{
                        long v0 = {v0};
                        long v1 = {v1};
                        long v2 = {v2};
                        long result = {};
                        System.println(Str.fromLong(result));
                    }}
                }}
                "#,
                render(&e),
            )
        };
        let literal = program(vars.map(render_const));
        let runtime = program([0, 1, 2].map(|i| format!("Cluster.arg({i})")));
        for (src, args) in [(literal, &[][..]), (runtime, &vars[..])] {
            let out = run(&src, args);
            prop_assert_eq!(out.as_deref().map(str::trim), Ok(&*expected.to_string()), "\nsource:\n{}", src);
        }
    }
}

/// Deterministic spot checks of Java-specific corner semantics, on `int` and
/// on `long`: each `a op b` once from literals, once from `Cluster.arg`.
#[test]
fn corner_semantics() {
    let cases: [(&str, i64, &str, i64, i64); 15] = [
        // (type, a, op, b, expected)
        ("long", i64::MAX, "+", 1, i64::MIN), // wrap
        ("int", i32::MAX as i64, "+", 1, i32::MIN as i64),
        ("long", i64::MIN, "-", 1, i64::MAX),
        ("int", 65536, "*", 65536, 0),
        ("long", -7, "/", 2, -3), // truncation toward zero
        ("int", -7, "/", 2, -3),
        ("long", -7, "%", 2, -1), // the sign of the dividend
        ("int", -7, "%", 2, -1),
        ("long", 1, "<<", 64, 1), // masked shift
        ("long", 1, "<<", 33, 1 << 33),
        ("int", 1, "<<", 33, 2),
        ("int", 1, "<<", 32, 1),
        ("long", -8, ">>", 1, -4), // arithmetic shift
        ("int", -8, ">>", 33, -4),
        ("long", 5, "/", 2, 2),
    ];
    for (ty, a, op, b, expected) in cases {
        // A negative literal renders as `0 - n`; `MIN` as `MIN + 1 - 1`.
        let lit = |v: i64| match v {
            v if v >= 0 => format!("(({ty}) {v})"),
            i64::MIN => format!("(0 - ({ty}) {} - 1)", i64::MAX),
            v => format!("(0 - ({ty}) {})", -v),
        };
        let read = |i: usize| format!("(({ty}) Cluster.arg({i}))");
        for (x, y, args) in [(lit(a), lit(b), vec![]), (read(0), read(1), vec![a, b])] {
            let src = main_with(&format!(
                "{ty} a = {x}; {ty} b = {y}; {ty} r = a {op} b; System.println(Str.fromLong(r));"
            ));
            let out = run(&src, &args);
            assert_eq!(out.as_deref().map(str::trim), Ok(&*expected.to_string()), "{src}");
        }
    }
}

/// Double semantics: IEEE behaviour passes through the interpreter.
#[test]
fn double_semantics() {
    let src = r#"
        class M {
            static void main() {
                double inf = 1.0 / 0.0;
                double nan = 0.0 / 0.0;
                if (inf > 1e308) { System.println("inf"); }
                if (nan != nan) { System.println("nan"); }
                System.println(Str.fromDouble(0.1 + 0.2));
            }
        }
    "#;
    assert_eq!(run(src, &[]), Ok(format!("inf\nnan\n{}\n", 0.1f64 + 0.2f64)));
}

/// Int (32-bit) narrowing casts and int wrap, once from literals, once from
/// `Cluster.arg`.
#[test]
fn int_narrowing() {
    let args = [4294967296, i32::MAX as i64, 399];
    let literals = ["4294967296", "2147483647", "3.99"];
    let reads = ["Cluster.arg(0)", "(int) Cluster.arg(1)", "(double) Cluster.arg(2) / 100.0"];
    for (inputs, args) in [(literals, &[][..]), (reads, &args[..])] {
        let [big, max, d] = inputs;
        let src = main_with(&format!(
            r#"
            long big = {big} + 5; // 2^32 + 5
            int narrowed = (int) big;
            System.println(Str.fromLong(narrowed));
            int wrap = {max};
            wrap += 1;
            System.println(Str.fromLong(wrap));
            double d = {d};
            System.println(Str.fromLong((int) d));
            double neg = 0.0 - d;
            System.println(Str.fromLong((int) neg));
            long far = (long) (d * 1e30);
            System.println(Str.fromLong(far));
            "#
        ));
        let out = run(&src, args);
        assert_eq!(out.as_deref(), Ok("5\n-2147483648\n3\n-3\n9223372036854775807\n"), "{src}");
    }
}
