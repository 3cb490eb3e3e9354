//! MiniParty language conformance: small single-feature programs with
//! exact expected output. These pin the front end + interpreter semantics
//! that everything else (analyses, serializers, applications) builds on.

use corm::{compile_and_run, OptConfig, RunOptions};

fn check(src: &str, expected: &str) {
    let out =
        compile_and_run(src, OptConfig::CLASS, RunOptions { machines: 1, ..Default::default() })
            .expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}\nsource: {src}", out.error);
    assert_eq!(out.output, expected, "source: {src}");
}

fn check_compile_fails(src: &str, needle: &str) {
    match corm::compile(src, OptConfig::CLASS) {
        Ok(_) => panic!("expected compile error containing {needle:?}"),
        Err(e) => assert!(e.message.contains(needle), "got: {}", e.message),
    }
}

fn p(body: &str) -> String {
    format!("class M {{ static void main() {{ {body} }} }}")
}

#[test]
fn variables_and_scoping() {
    check(
        &p(r#"
            int x = 1;
            { int y = 2; x += y; }
            { int y = 40; x += y; }
            System.println(Str.fromLong(x));
        "#),
        "43\n",
    );
    check_compile_fails(&p("int x = 1; int x = 2;"), "duplicate variable");
    check_compile_fails(&p("y = 1;"), "unknown variable");
}

#[test]
fn loops_break_continue() {
    check(
        &p(r#"
            long s = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 3) { continue; }
                if (i == 7) { break; }
                s += i;
            }
            System.println(Str.fromLong(s));
        "#),
        "18\n", // 0+1+2+4+5+6
    );
    check(
        &p(r#"
            int i = 0;
            while (true) {
                i++;
                if (i >= 5) { break; }
            }
            System.println(Str.fromLong(i));
        "#),
        "5\n",
    );
    check_compile_fails(&p("break;"), "outside a loop");
    check_compile_fails(&p("continue;"), "outside a loop");
}

#[test]
fn nested_loops_break_inner_only() {
    check(
        &p(r#"
            int count = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == 2) { break; }
                    count++;
                }
            }
            System.println(Str.fromLong(count));
        "#),
        "6\n",
    );
}

#[test]
fn recursion_and_static_dispatch() {
    check(
        r#"
        class M {
            static long ack(long m, long n) {
                if (m == 0) { return n + 1; }
                if (n == 0) { return ack(m - 1, 1); }
                return ack(m - 1, ack(m, n - 1));
            }
            static void main() { System.println(Str.fromLong(ack(2, 3))); }
        }
        "#,
        "9\n",
    );
}

#[test]
fn constructors_and_field_initializers() {
    check(
        r#"
        class A {
            int x = 10;
            int y;
            A(int y) { this.y = y + this.x; }
        }
        class M {
            static void main() {
                A a = new A(5);
                System.println(Str.fromLong(a.x * 100 + a.y));
            }
        }
        "#,
        "1015\n",
    );
}

#[test]
fn static_initializers_run_before_main() {
    check(
        r#"
        class G {
            static int a = 6;
            static int b = a * 7;
        }
        class M { static void main() { System.println(Str.fromLong(G.b)); } }
        "#,
        "42\n",
    );
}

#[test]
fn inheritance_and_overriding() {
    check(
        r#"
        class Animal {
            String name() { return "animal"; }
            String describe() { return "a ".concat(name()); }
        }
        class Dog extends Animal {
            String name() { return "dog"; }
        }
        class M {
            static void main() {
                Animal a = new Dog();
                System.println(a.describe()); // dynamic dispatch inside super
            }
        }
        "#,
        "a dog\n",
    );
}

#[test]
fn deep_inheritance_chain() {
    check(
        r#"
        class A { int f() { return 1; } }
        class B extends A { }
        class C extends B { int f() { return 3; } }
        class D extends C { }
        class M {
            static void main() {
                A[] xs = new A[4];
                xs[0] = new A();
                xs[1] = new B();
                xs[2] = new C();
                xs[3] = new D();
                long s = 0;
                for (int i = 0; i < 4; i++) { s = s * 10 + xs[i].f(); }
                System.println(Str.fromLong(s));
            }
        }
        "#,
        "1133\n",
    );
}

#[test]
fn casts_and_object_roundtrip() {
    check(
        r#"
        class Box { int v; Box(int v) { this.v = v; } }
        class M {
            static void main() {
                Object o = new Box(9);
                Box b = (Box) o;
                System.println(Str.fromLong(b.v));
            }
        }
        "#,
        "9\n",
    );
}

#[test]
fn string_operations() {
    check(
        &p(r#"
            String s = "Mini".concat("Party");
            System.println(s);
            System.println(Str.fromLong(s.length()));
            System.println(s.substring(4, 9));
            System.println(Str.fromLong(s.charAt(0)));
            if (s.equals("MiniParty")) { System.println("eq"); }
            if (!s.equals("minipარty")) { System.println("ne"); }
        "#),
        "MiniParty\n9\nParty\n77\neq\nne\n",
    );
}

#[test]
fn multidim_arrays_and_length() {
    check(
        &p(r#"
            int[][] grid = new int[3][4];
            System.println(Str.fromLong(grid.length));
            System.println(Str.fromLong(grid[2].length));
            long[][] jag = new long[2][];
            if (jag[0] == null) { System.println("null row"); }
            jag[0] = new long[7];
            System.println(Str.fromLong(jag[0].length));
        "#),
        "3\n4\nnull row\n7\n",
    );
}

#[test]
fn boolean_short_circuit_effects() {
    check(
        r#"
        class M {
            static int calls;
            static boolean bump() { calls++; return true; }
            static void main() {
                boolean a = false && bump();
                boolean b = true || bump();
                System.println(Str.fromLong(calls));
                boolean c = true && bump();
                System.println(Str.fromLong(calls));
                if (!a && b && c) { System.println("logic ok"); }
            }
        }
        "#,
        "0\n1\nlogic ok\n",
    );
}

#[test]
fn compound_assign_and_incdec_value() {
    check(
        &p(r#"
            int i = 5;
            int a = i++;
            int b = ++i;
            int c = i--;
            i *= 3;
            System.println(Str.fromLong(a));
            System.println(Str.fromLong(b));
            System.println(Str.fromLong(c));
            System.println(Str.fromLong(i));
        "#),
        "5\n7\n7\n18\n",
    );
}

#[test]
fn numeric_widening_in_expressions() {
    check(
        &p(r#"
            int i = 3;
            long l = 4;
            double d = 0.5;
            double r = i + l + d; // int -> long -> double
            System.println(Str.fromDouble(r));
            long big = i * 1000000000; // int overflow BEFORE widening
            System.println(Str.fromLong(big));
            long big2 = (long) i * 1000000000;
            System.println(Str.fromLong(big2));
        "#),
        &format!("7.5\n{}\n3000000000\n", 3i32.wrapping_mul(1_000_000_000)),
    );
}

#[test]
fn queue_fifo_order() {
    check(
        &p(r#"
            Queue q = new Queue(10);
            q.put("a"); q.put("b"); q.put("c");
            System.println(Str.fromLong(q.size()));
            System.println((String) q.take());
            System.println((String) q.take());
            System.println((String) q.take());
        "#),
        "3\na\nb\nc\n",
    );
}

#[test]
fn rng_determinism() {
    check(
        &p(r#"
            Rng a = new Rng(7);
            Rng b = new Rng(7);
            boolean same = true;
            for (int i = 0; i < 20; i++) {
                if (a.nextInt(1000) != b.nextInt(1000)) { same = false; }
            }
            if (same) { System.println("deterministic"); }
        "#),
        "deterministic\n",
    );
}

#[test]
fn null_comparisons() {
    check(
        r#"
        class Box { }
        class M {
            static void main() {
                Box b = null;
                if (b == null) { System.println("isnull"); }
                b = new Box();
                if (b != null) { System.println("notnull"); }
                Box c = b;
                if (b == c) { System.println("samref"); }
                if (b != new Box()) { System.println("difref"); }
            }
        }
        "#,
        "isnull\nnotnull\nsamref\ndifref\n",
    );
}

#[test]
fn type_errors_rejected() {
    check_compile_fails(&p("int x = true;"), "type mismatch");
    check_compile_fails(&p("boolean b = 0;"), "type mismatch");
    check_compile_fails(&p("while (1) { }"), "boolean");
    check_compile_fails(&p(r#"String s = "a" + "b";"#), "arithmetic requires numeric");
    check_compile_fails(&p("int[] a = new int[2]; a.foo();"), "no method");
    check_compile_fails(
        "class A { void f(int x) { } } class M { static void main() { A a = new A(); a.f(); } }",
        "expects 1 arguments",
    );
}

#[test]
fn comments_everywhere() {
    check(
        "class M { /* pre */ static void main() { // line\n System.println(/*mid*/\"ok\"); /* post */ } }",
        "ok\n",
    );
}

#[test]
fn spawned_local_thread_joins_before_exit() {
    // run_program joins user-spawned threads: the spawned print must be
    // captured even though main returns immediately.
    check(
        r#"
        class Work {
            static int dummy;
            static void go() { System.println("from thread"); }
        }
        class M { static void main() { spawn Work.go(); } }
        "#,
        "from thread\n",
    );
}

/// Classes every `front_end_errors_are_pinned` row may use; line 1 of each
/// program, so a row's error sits on line 2.
const ERROR_PRELUDE: &str = "class A { int x; static int s; A(int v) { } void f(int v) { } } \
    remote class R { int x; R() { } }";

/// The members of `M` beside `main`: an instance field and method, and a
/// static method.
const ERROR_MEMBERS: &str = "int k; void h() { } static void g() { }";

/// Every error path of name, field, static and element resolution, of
/// operator typing and of argument lowering, with its exact position and
/// text: a row is the body of `M.main` and the error it must produce.
#[test]
fn front_end_errors_are_pinned() {
    let rows: &[(&str, &str)] = &[
        // names
        ("int v = y;", "2:40: unknown variable `y`"),
        ("y = 1;", "2:32: unknown variable `y`"),
        ("int v = k;", "2:40: unknown variable `k`"),
        // fields on a class, a primitive, String and an array
        ("A a = new A(1); int v = a.z;", "2:57: no field `z` on `A`"),
        ("A a = new A(1); a.z = 1;", "2:49: no field `z` on `A`"),
        ("int i = 0; int v = i.z;", "2:52: no field `z` on int"),
        ("int i = 0; i.z = 1;", "2:44: no field `z` on int"),
        (r#"String t = "t"; int v = t.z;"#, "2:57: no field `z` on String"),
        ("int[] a = new int[1]; int v = a.z;", "2:63: no field `z` on int[]"),
        // remote fields, read and written
        (
            "R r = new R(); int v = r.x;",
            "2:56: field access on remote objects is not allowed; use accessor methods",
        ),
        (
            "R r = new R(); r.x = 1;",
            "2:48: field access on remote objects is not allowed; use accessor methods",
        ),
        (
            "R r = new R(); r.x++;",
            "2:48: field access on remote objects is not allowed; use accessor methods",
        ),
        // `length` is read-only
        ("int[] a = new int[1]; a.length = 1;", "2:55: no field `length` on int[]"),
        ("int[] a = new int[1]; a.length++;", "2:55: no field `length` on int[]"),
        ("int[] a = new int[1]; a.length += 1;", "2:55: no field `length` on int[]"),
        // elements
        ("int i = 0; int v = i[0];", "2:52: indexing a non-array"),
        ("int i = 0; i[0] = 1;", "2:44: indexing a non-array"),
        (
            "int[] a = new int[1]; int v = a[1.5];",
            "2:64: type mismatch: expected int, found double",
        ),
        ("int[] a = new int[1]; a[true] = 1;", "2:56: type mismatch: expected int, found boolean"),
        // statics and class names
        ("int v = A.t;", "2:41: no static field `t` on `A`"),
        ("A.t = 1;", "2:33: no static field `t` on `A`"),
        ("int v = Nope.t;", "2:40: unknown variable `Nope`"),
        ("Nope.t = 1;", "2:32: unknown variable `Nope`"),
        ("Object o = new Nope();", "2:43: unknown class `Nope`"),
        ("Nope.g();", "2:32: unknown variable `Nope`"),
        ("int A = 1; int v = A.s;", "2:52: no field `s` on int"),
        ("A.nope();", "2:33: no method `nope` on `A`"),
        ("M.h();", "2:33: `M.h` is an instance method"),
        // arity and argument types
        ("A a = new A();", "2:38: constructor expects 1 arguments, got 0"),
        ("A a = new A(1, 2);", "2:38: constructor expects 1 arguments, got 2"),
        ("A a = new A(1.5);", "2:44: type mismatch: expected int, found double"),
        ("A a = new A(1); a.f();", "2:49: `f` expects 1 arguments, got 0"),
        ("A a = new A(1); a.f(true);", "2:52: type mismatch: expected int, found boolean"),
        ("g(1);", "2:32: `g` expects 0 arguments, got 1"),
        ("M.g(1);", "2:33: `g` expects 0 arguments, got 1"),
        (
            r#"String t = "t"; int n = t.length(1);"#,
            "2:57: `String.length` expects 0 arguments, got 1",
        ),
        (
            r#"String t = "t"; int n = t.charAt();"#,
            "2:57: `String.charAt` expects 1 arguments, got 0",
        ),
        (
            r#"String t = "t"; int n = t.charAt(1.5);"#,
            "2:65: type mismatch: expected int, found double",
        ),
        // operator typing
        ("boolean b = true; int v = b + 1;", "2:60: arithmetic requires numeric operands"),
        (r#"int v = 1 * "s";"#, "2:42: arithmetic requires numeric operands"),
        ("boolean c = true < 1;", "2:49: comparison requires numeric operands"),
        ("double d = 1.0; long v = d & 1;", "2:59: bitwise operators require integral operands"),
        ("int v = 1 << 2.0;", "2:42: bitwise operators require integral operands"),
        ("boolean c = 1 == true;", "2:46: incomparable operand types"),
        (r#"boolean c = "s" != 1;"#, "2:48: incomparable operand types"),
        ("boolean b = true; b += 1;", "2:52: compound assignment requires numeric operands"),
        (r#"int i = 0; i -= "s";"#, "2:45: compound assignment requires numeric operands"),
        ("boolean b = true; b++;", "2:51: ++/-- requires a numeric operand"),
        ("int i = 0; (i + 1)++;", "2:46: invalid assignment target"),
        ("boolean c = !1;", "2:44: `!` requires a boolean operand"),
        ("int v = -true;", "2:40: negation requires a numeric operand"),
        // parse errors name a token by its text
        ("int v = 1 + * 2;", "2:44: expected an expression, found `*`"),
        ("int v = 1 < 2 ||;", "2:48: expected an expression, found `;`"),
        ("int v = (1 + 2;", "2:46: expected `)`, found `;`"),
    ];
    let mut wrong = Vec::new();
    for &(body, want) in rows {
        let src = format!(
            "{ERROR_PRELUDE}\nclass M {{ static void main() {{ {body} }} {ERROR_MEMBERS} }}"
        );
        let got = match corm::compile(&src, OptConfig::CLASS) {
            Ok(_) => "compiles".to_string(),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("        ({body:?}, {got:?}),"));
        }
    }
    assert!(wrong.is_empty(), "rows that differ, as they read now:\n{}", wrong.join("\n"));
}
