//! Domain inference and lowering: from parsed [`Statement`]s to a
//! validated loop-nest [`Program`].
//!
//! The inference rules are the ones the paper's kernels imply:
//!
//! - every iterator ranges over `0 ..= extent-1`, with the extent taken
//!   from the `where` clause or defaulting to [`DEFAULT_EXTENT`];
//! - each array dimension's extent is the maximum reachable index value
//!   plus one (so a shifted window like `x[n + t]` gets the familiar
//!   `outputs + taps - 1` halo automatically); an index that can reach
//!   a negative value is an error at the tensor's position;
//! - the lowered access list is the reads in right-hand-side order
//!   followed by the single write of the output — exactly the shape of
//!   the hand-coded kernels in `datareuse-kernels`, so an expression
//!   matmul and the builtin `matmul` produce *equal* programs.

use std::collections::BTreeMap;

use datareuse_loopir::{Access, ArrayDecl, Loop, LoopNest, ParseNestError, Program};

use crate::ast::{Pos, Statement, TensorRef};

/// Extent given to iterators the `where` clause does not mention.
pub const DEFAULT_EXTENT: i64 = 32;

fn err(pos: Pos, message: impl Into<String>) -> ParseNestError {
    ParseNestError {
        line: pos.line,
        column: pos.column,
        message: message.into(),
    }
}

/// What lowering has learned about one array, merged across every
/// occurrence in the program.
struct ArrayInfo {
    extents: Vec<i64>,
    written: bool,
    bits: Option<(u32, Pos)>,
    first: Pos,
    appearance: usize,
}

/// Resolves the statement's loop order: the `~` clause (with one-word
/// forms like `ijk` split into single-letter iterators) checked to be a
/// permutation of the inferred iterators, or first-appearance order.
fn loop_order(stmt: &Statement) -> Result<Vec<String>, ParseNestError> {
    let iters = &stmt.iterators;
    let Some(order) = &stmt.order else {
        return Ok(iters.clone());
    };
    let mut names: Vec<(String, Pos)> = order.clone();
    if names.len() == 1 && !iters.contains(&names[0].0) {
        // `~ ijk`: split into per-character iterators when every letter
        // names one.
        let (word, pos) = names[0].clone();
        let split: Vec<(String, Pos)> =
            word.chars().map(|c| (c.to_string(), pos)).collect();
        if split.iter().all(|(n, _)| iters.contains(n)) {
            names = split;
        }
    }
    for (name, pos) in &names {
        if !iters.contains(name) {
            return Err(err(
                *pos,
                format!("loop order names `{name}`, which appears in no index expression"),
            ));
        }
    }
    for (i, (name, pos)) in names.iter().enumerate() {
        if names[..i].iter().any(|(n, _)| n == name) {
            return Err(err(*pos, format!("loop order mentions `{name}` twice")));
        }
    }
    if names.len() != iters.len() {
        let missing: Vec<&str> = iters
            .iter()
            .filter(|i| !names.iter().any(|(n, _)| n == *i))
            .map(String::as_str)
            .collect();
        return Err(err(
            names[0].1,
            format!("loop order misses iterator(s): {}", missing.join(", ")),
        ));
    }
    Ok(names.into_iter().map(|(n, _)| n).collect())
}

/// Per-iterator extent for one statement.
fn extent_of(stmt: &Statement, name: &str) -> i64 {
    stmt.extents.get(name).map_or(DEFAULT_EXTENT, |(v, _)| *v)
}

/// Folds one tensor occurrence into the array table, inferring each
/// dimension's extent from the reachable index range.
fn merge_tensor(
    arrays: &mut BTreeMap<String, ArrayInfo>,
    stmt: &Statement,
    t: &TensorRef,
    written: bool,
    next_appearance: &mut usize,
) -> Result<(), ParseNestError> {
    let mut extents = Vec::with_capacity(t.indices.len());
    for expr in &t.indices {
        let range = expr.value_range(|n| {
            stmt.iterators
                .iter()
                .any(|i| i == n)
                .then(|| (0, extent_of(stmt, n) - 1))
        });
        let overflow = || {
            err(
                t.pos,
                format!(
                    "index `{expr}` of `{}`: range overflows 64-bit integers",
                    t.name
                ),
            )
        };
        let (lo, hi) = range.ok_or_else(overflow)?;
        if lo < 0 {
            return Err(err(
                t.pos,
                format!(
                    "index `{expr}` of `{}` can reach {lo}; add a constant offset \
                     so every index stays non-negative",
                    t.name
                ),
            ));
        }
        extents.push(hi.checked_add(1).ok_or_else(overflow)?);
    }
    match arrays.get_mut(&t.name) {
        None => {
            arrays.insert(
                t.name.clone(),
                ArrayInfo {
                    extents,
                    written,
                    bits: None,
                    first: t.pos,
                    appearance: *next_appearance,
                },
            );
            *next_appearance += 1;
        }
        Some(info) => {
            if info.extents.len() != extents.len() {
                return Err(err(
                    t.pos,
                    format!(
                        "array `{}` is used with {} indices here but {} elsewhere",
                        t.name,
                        extents.len(),
                        info.extents.len()
                    ),
                ));
            }
            for (have, new) in info.extents.iter_mut().zip(extents) {
                *have = (*have).max(new);
            }
            info.written |= written;
        }
    }
    Ok(())
}

/// Lowers parsed statements into a loop-nest program: one nest per
/// statement, arrays declared in first-appearance order (inputs before
/// the output, as the hand-coded kernels declare them).
///
/// # Errors
///
/// A [`ParseNestError`] at the offending tensor or clause for domain
/// errors: negative reachable indices, rank mismatches across
/// statements, unknown names in `~` or `where`, conflicting bit widths.
///
/// # Examples
///
/// ```
/// use datareuse_exprlang::{lower, parse_statements};
///
/// let stmts = parse_statements("y[n] += x[n + t] * h[t] where n=16, t=4").unwrap();
/// let p = lower(&stmts).unwrap();
/// assert_eq!(p.array("x").unwrap().extents(), &[19]);
/// assert_eq!(p.nests()[0].iteration_count(), 64);
/// ```
pub fn lower(statements: &[Statement]) -> Result<Program, ParseNestError> {
    let mut arrays: BTreeMap<String, ArrayInfo> = BTreeMap::new();
    let mut next_appearance = 0usize;
    let mut nests = Vec::with_capacity(statements.len());
    for stmt in statements {
        // `where` clauses must talk about this statement's names.
        for (name, (_, pos)) in &stmt.extents {
            if !stmt.iterators.contains(name) {
                return Err(err(
                    *pos,
                    format!("`where {name}=...` names an iterator used in no index expression"),
                ));
            }
        }
        for t in &stmt.inputs {
            merge_tensor(&mut arrays, stmt, t, false, &mut next_appearance)?;
        }
        merge_tensor(&mut arrays, stmt, &stmt.output, true, &mut next_appearance)?;
        for (name, (bits, pos)) in &stmt.bits {
            let used = stmt.output.name == *name || stmt.inputs.iter().any(|t| t.name == *name);
            if !used {
                return Err(err(
                    *pos,
                    format!("`where {name}:...` names an array this statement does not use"),
                ));
            }
            let info = arrays.get_mut(name).expect("checked above");
            match info.bits {
                None => info.bits = Some((*bits, *pos)),
                Some((have, _)) if have == *bits => {}
                Some((have, _)) => {
                    return Err(err(
                        *pos,
                        format!("array `{name}` is declared {have}-bit elsewhere, {bits}-bit here"),
                    ));
                }
            }
        }
        let order = loop_order(stmt)?;
        let loops: Vec<Loop> = order
            .iter()
            .map(|n| Loop::new(n.clone(), 0, extent_of(stmt, n) - 1))
            .collect();
        let mut accesses: Vec<Access> = stmt
            .inputs
            .iter()
            .map(|t| Access::read(t.name.clone(), t.indices.iter().cloned()))
            .collect();
        accesses.push(Access::write(
            stmt.output.name.clone(),
            stmt.output.indices.iter().cloned(),
        ));
        nests.push((LoopNest::new(loops, accesses), stmt.output.pos));
    }
    let mut program = Program::new();
    let mut ordered: Vec<(&String, &ArrayInfo)> = arrays.iter().collect();
    ordered.sort_by_key(|(_, info)| info.appearance);
    for (name, info) in ordered {
        let bits = info
            .bits
            .map(|(b, _)| b)
            .unwrap_or(if info.written { 32 } else { 16 });
        let decl = ArrayDecl::new(name.clone(), info.extents.iter().copied(), bits)
            .map_err(|e| err(info.first, e.to_string()))?;
        program.declare(decl).map_err(|e| err(info.first, e.to_string()))?;
    }
    for (nest, pos) in nests {
        program.push_nest(nest).map_err(|e| err(pos, e.to_string()))?;
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statements;

    fn lowered(src: &str) -> Program {
        lower(&parse_statements(src).unwrap()).unwrap()
    }

    #[test]
    fn default_extent_applies_to_unmentioned_iterators() {
        let p = lowered("C[i,j] += A[i,k] * B[k,j]");
        for l in p.nests()[0].loops() {
            assert_eq!((l.lower(), l.upper()), (0, DEFAULT_EXTENT - 1));
        }
        assert_eq!(p.array("C").unwrap().extents(), &[32, 32]);
    }

    #[test]
    fn arrays_declare_inputs_first_then_output() {
        let p = lowered("C[i,j] += A[i,k] * B[k,j]");
        let names: Vec<&str> = p.arrays().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["A", "B", "C"]);
        assert_eq!(p.array("A").unwrap().elem_bits(), 16);
        assert_eq!(p.array("C").unwrap().elem_bits(), 32);
    }

    #[test]
    fn one_word_order_splits_into_letters() {
        let p = lowered("C[i,j] += A[i,k] * B[k,j] ~ kij where i=4, j=5, k=6");
        let names: Vec<&str> = p.nests()[0].loops().iter().map(|l| l.name()).collect();
        assert_eq!(names, ["k", "i", "j"]);
    }

    #[test]
    fn negative_reach_is_an_error_with_position() {
        let e = lower(&parse_statements("y[n] += x[n - t] * h[t] where n=8, t=4").unwrap())
            .unwrap_err();
        assert!(e.message.contains("can reach -3"), "{e}");
        assert_eq!((e.line, e.column), (1, 9));
    }

    #[test]
    fn order_errors_name_the_problem() {
        let stmts = parse_statements("C[i,j] += A[i,k] * B[k,j] ~ i j").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("misses iterator(s): k"));
        let stmts = parse_statements("C[i,j] += A[i,k] * B[k,j] ~ i j k q").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("`q`"));
        let stmts = parse_statements("C[i,j] += A[i,k] * B[k,j] ~ i i k").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("twice"));
    }

    #[test]
    fn rank_mismatch_across_statements_is_rejected() {
        let stmts = parse_statements("a[i] = b[i]; c[i,j] += b[i,j] * d[j]").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("indices"));
    }

    #[test]
    fn shared_arrays_take_the_max_extent_and_union_bits() {
        let p = lowered("a[i] = b[i] where i=8; c[j] += b[2*j] * d[j] where j=8, b:8");
        assert_eq!(p.array("b").unwrap().extents(), &[15]);
        assert_eq!(p.array("b").unwrap().elem_bits(), 8);
        assert_eq!(p.nests().len(), 2);
    }

    #[test]
    fn where_clause_must_name_used_things() {
        let stmts = parse_statements("a[i] = b[i] where q=8").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("no index expression"));
        let stmts = parse_statements("a[i] = b[i] where z:8").unwrap();
        assert!(lower(&stmts).unwrap_err().message.contains("does not use"));
    }
}
