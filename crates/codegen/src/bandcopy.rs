//! Code generation for footprint-level copy-candidates.
//!
//! The pairwise template (Fig. 8) covers the innermost candidates; the
//! larger discontinuities of Fig. 4a (`A₁ … A₃`) hold the *footprint* of a
//! sub-nest and are refreshed incrementally as the carrier loop steps —
//! e.g. the 23-row band of the motion-estimation reference frame that
//! slides down by `n` rows per block row. [`emit_band_copy`] generates
//! that buffer: explicit copy loops fetch the newly exposed slab at each
//! carrier iteration, modulo folding keeps the buffer at exactly the
//! window size, and the original access is rewritten to read the band.
//!
//! Supported shape (everything the paper's kernels need): dense
//! per-dimension windows over disjoint inner-iterator sets with
//! non-negative coefficients, and at most one dimension shifting per
//! carrier step.

use datareuse_core::{footprint_levels, AnalyzeError, PairGeometry};
use datareuse_loopir::{AffineExpr, Program};

use crate::ctext::{c_type, CWriter};
use crate::schedule::ScheduleError;

/// Geometry of one band dimension, language-neutral: the C emitter in
/// this module and the Rust emitter in [`crate::rustgen`] both render
/// from it.
pub(crate) struct BandDim {
    /// Window width (dense value count of the inner-restricted index).
    pub width: i64,
    /// Shift per carrier iteration (carrier coefficient).
    pub shift: i64,
    /// Base expression over outer + carrier iterators.
    pub base: AffineExpr,
    /// Inner-iterator offset expression relative to the base.
    pub offset: AffineExpr,
}

/// The full band geometry of one footprint-level copy-candidate.
pub(crate) struct BandGeometry {
    /// One entry per array dimension.
    pub dims: Vec<BandDim>,
    /// Candidate size in elements (product of the widths).
    pub size: u64,
    /// The candidate's reuse factor `F_R`.
    pub reuse_factor: f64,
}

/// Emits C code introducing the footprint-level copy-candidate at `depth`
/// for `program.nests()[nest].accesses()[access]` (see
/// [`datareuse_core::footprint_levels`] for the candidate semantics).
///
/// # Errors
///
/// Fails with [`ScheduleError::NoReuse`] when the candidate does not exist
/// (no reuse at that depth) or the access falls outside the supported
/// shape (non-dense windows, shared iterators across dimensions, more
/// than one shifting dimension, negative inner coefficients).
///
/// # Examples
///
/// ```
/// use datareuse_codegen::emit_band_copy;
/// use datareuse_kernels::MotionEstimation;
///
/// let p = MotionEstimation::SMALL.program();
/// let c = emit_band_copy(&p, 0, 1, 1).expect("band exists");
/// assert!(c.contains("Old_band"));
/// assert!(c.contains("/* refresh the newly exposed slab */"));
/// ```
pub fn emit_band_copy(
    program: &Program,
    nest: usize,
    access: usize,
    depth: usize,
) -> Result<String, ScheduleError> {
    let geometry = band_geometry(program, nest, access, depth)?;
    emit_band_copy_c(program, nest, access, depth, &geometry)
}

/// Validates the candidate and computes the band geometry shared by the
/// C and Rust emitters: per-dimension window width, per-carrier shift,
/// and the base/offset expressions of the sliding window.
pub(crate) fn band_geometry(
    program: &Program,
    nest: usize,
    access: usize,
    depth: usize,
) -> Result<BandGeometry, ScheduleError> {
    let raw_nest = program
        .nests()
        .get(nest)
        .ok_or(ScheduleError::NoSuchNest { nest })?;
    if depth == 0 || depth >= raw_nest.depth() {
        return Err(ScheduleError::NoReuse);
    }
    // Reuse the core analysis for validity: the candidate must exist and
    // be exact at this depth.
    let levels = footprint_levels(raw_nest, access).map_err(ScheduleError::Analyze)?;
    let level = levels
        .iter()
        .find(|l| l.depth == depth && l.exact)
        .ok_or(ScheduleError::NoReuse)?;
    // Geometry probe (also validates access/loop indices).
    let _ = PairGeometry::from_access(raw_nest, access, depth - 1, depth)?;

    let norm = raw_nest.normalized();
    let loops = norm.loops();
    let acc = &norm.accesses()[access];
    let inner_names: Vec<&str> = loops[depth..].iter().map(|l| l.name()).collect();
    let carrier = &loops[depth - 1];

    let mut dims = Vec::new();
    let mut shifting = 0usize;
    for expr in acc.indices() {
        let (inner_part, base) = expr.split(&inner_names);
        let (lo, hi) = inner_part
            .value_range(|n| {
                loops[depth..]
                    .iter()
                    .find(|l| l.name() == n)
                    .map(|l| (l.lower(), l.upper()))
            })
            .ok_or(ScheduleError::Analyze(AnalyzeError::Overflow))?;
        let width = hi - lo + 1;
        // The window must be *dense*: every value in [lo, hi] reachable,
        // so the band is a contiguous sliding interval (checked by
        // enumeration, as in the core footprint analysis).
        let contributing: Vec<_> = loops[depth..]
            .iter()
            .filter(|l| inner_part.coeff(l.name()) != 0)
            .collect();
        let combos: u64 = contributing.iter().map(|l| l.trip_count()).product();
        if combos > 1 << 20 {
            return Err(ScheduleError::NoReuse);
        }
        let mut values = std::collections::BTreeSet::new();
        let mut stack = vec![(0usize, 0i64)];
        while let Some((d, v)) = stack.pop() {
            if d == contributing.len() {
                values.insert(v);
                continue;
            }
            let coeff = inner_part.coeff(contributing[d].name());
            for x in contributing[d].values() {
                stack.push((d + 1, v + coeff * x));
            }
        }
        if values.len() as i64 != width {
            return Err(ScheduleError::NoReuse);
        }
        let shift = expr.coeff(carrier.name());
        if shift != 0 {
            shifting += 1;
        }
        // The window origin is `base + lo` (lo ≠ 0 when inner coefficients
        // are negative, e.g. the FIR x[n − t] pattern).
        dims.push(BandDim {
            width,
            shift,
            base: base + lo,
            offset: inner_part + (-lo),
        });
    }
    if shifting > 1 {
        return Err(ScheduleError::NoReuse);
    }
    debug_assert_eq!(
        dims.iter().map(|d| d.width as u64).product::<u64>(),
        level.size,
        "band dims must reproduce the candidate size"
    );
    Ok(BandGeometry {
        dims,
        size: level.size,
        reuse_factor: level.reuse_factor(),
    })
}

/// Renders the C template from a validated band geometry.
fn emit_band_copy_c(
    program: &Program,
    nest: usize,
    access: usize,
    depth: usize,
    geometry: &BandGeometry,
) -> Result<String, ScheduleError> {
    let norm = program.nests()[nest].normalized();
    let loops = norm.loops();
    let acc = &norm.accesses()[access];
    let decl = program.array(acc.array()).expect("validated program");
    let carrier = &loops[depth - 1];
    let dims = &geometry.dims;

    let band = format!("{}_band", acc.array());
    let bits = decl.elem_bits();
    let mut w = CWriter::new();
    w.line(format!(
        "/* footprint-level copy-candidate (depth {depth}): {} elements, F_R = {:.2} */",
        geometry.size, geometry.reuse_factor
    ));
    let band_dims: String = dims.iter().map(|d| format!("[{}]", d.width)).collect();
    w.line(format!("{} {band}{band_dims};", c_type(bits)));
    w.line("");
    // Outer loops incl. the carrier.
    for l in &loops[..depth] {
        w.open(format!(
            "for (int {n} = {lo}; {n} <= {hi}; {n}++) {{",
            n = l.name(),
            lo = l.lower(),
            hi = l.upper()
        ));
    }
    // Refresh loops: iterate window positions, copying only the newly
    // exposed slab (everything on the first carrier iteration).
    w.line("/* refresh the newly exposed slab */");
    for (d, bd) in dims.iter().enumerate() {
        let start = if bd.shift > 0 {
            format!(
                "(({c} == {lo}) ? 0 : {w} - {s})",
                c = carrier.name(),
                lo = carrier.lower(),
                w = bd.width,
                s = bd.shift.min(bd.width)
            )
        } else {
            "0".to_string()
        };
        w.open(format!(
            "for (int w{d} = {start}; w{d} < {width}; w{d}++) {{",
            width = bd.width
        ));
    }
    let band_slot: String = dims
        .iter()
        .enumerate()
        .map(|(d, bd)| format!("[(({}) + w{d}) % {}]", bd.base, bd.width))
        .collect();
    let src_slot: String = dims
        .iter()
        .enumerate()
        .map(|(d, bd)| format!("[({}) + w{d}]", bd.base))
        .collect();
    w.line(format!("{band}{band_slot} = {}{src_slot};", acc.array()));
    for _ in dims {
        w.close();
    }
    // Inner loops with the rewritten access.
    for l in &loops[depth..] {
        w.open(format!(
            "for (int {n} = {lo}; {n} <= {hi}; {n}++) {{",
            n = l.name(),
            lo = l.lower(),
            hi = l.upper()
        ));
    }
    let read_slot: String = dims
        .iter()
        .map(|bd| format!("[(({}) + ({})) % {}]", bd.base, bd.offset, bd.width))
        .collect();
    w.line(format!("sink = {band}{read_slot};"));
    for _ in loops {
        w.close();
    }
    Ok(w.into_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datareuse_kernels::{Conv2d, MotionEstimation};
    use datareuse_loopir::parse_program;

    #[test]
    fn me_band_emits_all_depths() {
        let p = MotionEstimation::SMALL.program();
        for depth in [1usize, 2, 3, 4] {
            let c = emit_band_copy(&p, 0, 1, depth).unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            assert!(c.contains("Old_band"), "depth {depth}");
            assert_eq!(c.matches('{').count(), c.matches('}').count());
        }
        // Depth 5 carries no reuse (pruned candidate).
        assert!(emit_band_copy(&p, 0, 1, 5).is_err());
    }

    #[test]
    fn conv_band_structure() {
        let p = Conv2d {
            height: 12,
            width: 12,
            tap_rows: 3,
            tap_cols: 3,
        }
        .program();
        let c = emit_band_copy(&p, 0, 0, 1).expect("row band");
        // 3 rows × 14 columns window over the padded image.
        assert!(c.contains("image_band[3][14];"), "{c}");
        assert!(c.contains("% 3]"));
    }

    #[test]
    fn rejects_unsupported_shapes() {
        // Diagonal access: dims share the inner iterator.
        let p = parse_program("array A[16][16]; for j in 0..8 { for k in 0..8 { read A[k][k]; } }")
            .unwrap();
        assert!(emit_band_copy(&p, 0, 0, 1).is_err());
        // Streaming access: no reuse at any depth.
        let q = parse_program("array A[64]; for j in 0..8 { for k in 0..8 { read A[8*j + k]; } }")
            .unwrap();
        assert!(emit_band_copy(&q, 0, 0, 1).is_err());
        // Bad depth.
        let r = parse_program("array A[23]; for j in 0..16 { for k in 0..8 { read A[j + k]; } }")
            .unwrap();
        assert!(emit_band_copy(&r, 0, 0, 0).is_err());
        assert!(emit_band_copy(&r, 0, 0, 2).is_err());
    }
}
