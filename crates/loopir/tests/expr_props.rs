//! Property tests of the affine-expression algebra and the DSL parser,
//! driven by the in-repo deterministic harness (`datareuse-proptest`).

use datareuse_proptest::{check, prop_assert, prop_assert_eq, Config, Rng};

use datareuse_loopir::{parse_program, AffineExpr};

const ITERS: [&str; 3] = ["i", "j", "k"];

/// A generated expression, as shrinkable raw parts: `(terms, constant)`
/// with each term a `(coefficient, iterator index)` pair.
type ExprSpec = (Vec<(i64, usize)>, i64);

fn gen_expr(rng: &mut Rng) -> ExprSpec {
    (
        rng.vec(0, 4, |r| (r.i64_in(-6, 6), r.usize_in(0, ITERS.len() - 1))),
        rng.i64_in(-20, 20),
    )
}

fn build(spec: &ExprSpec) -> AffineExpr {
    let mut e = AffineExpr::constant(spec.1);
    for &(coeff, which) in &spec.0 {
        e.add_term(ITERS[which % ITERS.len()], coeff);
    }
    e
}

fn gen_env(rng: &mut Rng) -> (i64, i64, i64) {
    (rng.i64_in(-10, 10), rng.i64_in(-10, 10), rng.i64_in(-10, 10))
}

fn eval(e: &AffineExpr, env: &[i64; 3]) -> i64 {
    e.eval(|n| ITERS.iter().position(|&it| it == n).map(|i| env[i]))
}

/// Evaluation is linear: eval(a + b) = eval(a) + eval(b),
/// eval(s·a) = s·eval(a), eval(−a) = −eval(a).
#[test]
fn evaluation_is_linear() {
    check(
        "evaluation_is_linear",
        &Config::default(),
        |rng| (gen_expr(rng), gen_expr(rng), rng.i64_in(-5, 5), gen_env(rng)),
        |(sa, sb, s, env)| {
            let (a, b) = (build(sa), build(sb));
            let env = [env.0, env.1, env.2];
            prop_assert_eq!(
                eval(&(a.clone() + b.clone()), &env),
                eval(&a, &env) + eval(&b, &env)
            );
            prop_assert_eq!(eval(&a.scaled(*s), &env), s * eval(&a, &env));
            prop_assert_eq!(eval(&(-a.clone()), &env), -eval(&a, &env));
            prop_assert_eq!(
                eval(&(a.clone() - b.clone()), &env),
                eval(&a, &env) - eval(&b, &env)
            );
            Ok(())
        },
    );
}

/// Addition is commutative and associative on the normal form.
#[test]
fn addition_is_commutative_and_associative() {
    check(
        "addition_is_commutative_and_associative",
        &Config::default(),
        |rng| (gen_expr(rng), gen_expr(rng), gen_expr(rng)),
        |(sa, sb, sc)| {
            let (a, b, c) = (build(sa), build(sb), build(sc));
            prop_assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
            prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a + (b + c));
            Ok(())
        },
    );
}

/// Substitution agrees with evaluation: substituting `j := r` then
/// evaluating equals evaluating with `env[j] = eval(r, env)`.
#[test]
fn substitution_agrees_with_evaluation() {
    check(
        "substitution_agrees_with_evaluation",
        &Config::default(),
        |rng| (gen_expr(rng), gen_expr(rng), gen_env(rng)),
        |(se, sr, env)| {
            let e = build(se);
            // The replacement must not mention "j" itself for the
            // comparison to be well-defined.
            let mut r = build(sr);
            r.add_term("j", -r.coeff("j"));
            let substituted = e.substitute("j", &r);
            let mut env = [env.0, env.1, env.2];
            let direct = {
                env[1] = eval(&r, &env);
                eval(&e, &env)
            };
            prop_assert_eq!(eval(&substituted, &env), direct);
            Ok(())
        },
    );
}

/// `value_range` is a tight interval: every evaluated point lies
/// inside, and both endpoints are attained at box corners.
#[test]
fn value_range_is_tight() {
    check(
        "value_range_is_tight",
        &Config::default(),
        |rng| {
            (
                gen_expr(rng),
                (rng.i64_in(-5, 0), rng.i64_in(0, 6)),
                (rng.i64_in(-5, 0), rng.i64_in(0, 6)),
                (rng.i64_in(-5, 0), rng.i64_in(0, 6)),
            )
        },
        |(se, b0, b1, b2)| {
            for (lo, w) in [b0, b1, b2] {
                if *lo > 0 || *w < 0 {
                    return Ok(()); // shrunk out of the generator domain
                }
            }
            let e = build(se);
            let bounds = [
                (b0.0, b0.0 + b0.1),
                (b1.0, b1.0 + b1.1),
                (b2.0, b2.0 + b2.1),
            ];
            let (lo, hi) = e
                .value_range(|n| ITERS.iter().position(|&it| it == n).map(|i| bounds[i]))
                .expect("small coefficients cannot overflow");
            let mut seen_lo = false;
            let mut seen_hi = false;
            for i in bounds[0].0..=bounds[0].1 {
                for j in bounds[1].0..=bounds[1].1 {
                    for k in bounds[2].0..=bounds[2].1 {
                        let v = eval(&e, &[i, j, k]);
                        prop_assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
                        seen_lo |= v == lo;
                        seen_hi |= v == hi;
                    }
                }
            }
            prop_assert!(seen_lo && seen_hi, "range endpoints not attained");
            Ok(())
        },
    );
}

/// Display output of an expression parses back to the same function
/// (checked through a generated one-loop program using it).
#[test]
fn display_parses_back() {
    check(
        "display_parses_back",
        &Config::default(),
        |rng| (gen_expr(rng), gen_env(rng)),
        |(se, env)| {
            let e = build(se);
            // Constrain to non-negative values over i,j,k in [0, 4] so the
            // access stays in bounds.
            let (lo, hi) = e
                .value_range(|n| ITERS.iter().position(|&it| it == n).map(|_| (0i64, 4)))
                .expect("small coefficients cannot overflow");
            let offset = -lo;
            let extent = hi + offset + 1;
            let shifted = e.clone() + offset;
            let src = format!(
                "array A[{extent}];
                 for i in 0..5 {{ for j in 0..5 {{ for k in 0..5 {{ read A[{shifted}]; }} }} }}"
            );
            let program = parse_program(&src).expect("generated DSL parses");
            let parsed = &program.nests()[0].accesses()[0].indices()[0];
            // Compare as functions at a sample point inside the box.
            let env = [
                env.0.rem_euclid(5),
                env.1.rem_euclid(5),
                env.2.rem_euclid(5),
            ];
            prop_assert_eq!(eval(parsed, &env), eval(&shifted, &env));
            // And structurally, thanks to the normal form.
            prop_assert_eq!(parsed, &shifted);
            Ok(())
        },
    );
}

/// `split` partitions the expression: restricted + base == original.
#[test]
fn split_partitions() {
    check(
        "split_partitions",
        &Config::default(),
        |rng| (gen_expr(rng), gen_env(rng)),
        |(se, env)| {
            let e = build(se);
            let env = [env.0, env.1, env.2];
            let (restricted, base) = e.split(&["i", "k"]);
            prop_assert_eq!(restricted.coeff("j"), 0);
            prop_assert_eq!(restricted.constant_part(), 0);
            prop_assert_eq!(eval(&restricted, &env) + eval(&base, &env), eval(&e, &env));
            Ok(())
        },
    );
}
