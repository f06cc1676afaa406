//! Execution of the serving operations.
//!
//! One op = one pure function from a request body to the text of its
//! JSON result, encoded once: that text is what the cache stores and
//! what the wire carries.
//! The CLI's one-shot subcommands route through the same entry points
//! (`datareuse explore --json` and the server's `explore` call the same
//! report builder on the same registry-loaded kernel), which is what
//! makes the integration-test guarantee — *server responses are
//! byte-identical to the equivalent CLI invocation* — hold by
//! construction instead of by parallel maintenance.

use datareuse_codegen::{
    emit_band_copy, emit_selfcheck, emit_selfcheck_adopt, emit_selfcheck_band, emit_transformed,
    emit_transformed_adopt, TemplateOptions,
};
use datareuse_core::{
    explore_program, explore_signal, read_count, ExplorationReport, ExploreOptions,
};
use datareuse_kernels::load_kernel;
use datareuse_loopir::{AccessKind, Program};
use datareuse_memmodel::{BitCount, MemoryLibrary, MemoryTechnology};
use datareuse_obs::{span, Json};

use crate::protocol::{
    CodegenParams, CodegenSpec, ExploreParams, Op, ParetoParams, E_BAD_REQUEST, E_INTERNAL,
};

/// A failed op: a protocol error code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpError {
    /// One of the `E_*` protocol codes.
    pub code: &'static str,
    /// What went wrong.
    pub message: String,
}

impl OpError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            code: E_BAD_REQUEST,
            message: message.into(),
        }
    }
}

/// The most-read array of a program — the default signal when a request
/// names none (the same heuristic the CLI has always used).
pub fn default_array(program: &Program) -> Option<String> {
    let mut best: Option<(String, u64)> = None;
    for decl in program.arrays() {
        let reads = read_count(program, decl.name());
        if reads > 0 && best.as_ref().is_none_or(|(_, r)| reads > *r) {
            best = Some((decl.name().to_string(), reads));
        }
    }
    best.map(|(n, _)| n)
}

fn resolve(kernel: &str, array: Option<&str>) -> Result<(Program, String), OpError> {
    let _load = span("load");
    let program = load_kernel(kernel).map_err(OpError::bad)?;
    let array = match array {
        Some(a) => a.to_string(),
        None => default_array(&program)
            .ok_or_else(|| OpError::bad("program has no read accesses"))?,
    };
    Ok((program, array))
}

fn options(depth: Option<usize>) -> ExploreOptions {
    let mut opts = ExploreOptions::default();
    if let Some(d) = depth {
        opts.max_chain_depth = d;
    }
    opts
}

/// Runs `explore`: the pairwise reuse sweep and Pareto report for one
/// signal, exactly as `datareuse explore <kernel> --json` prints it.
pub fn explore(params: &ExploreParams) -> Result<String, OpError> {
    let (program, array) = resolve(&params.kernel, params.array.as_deref())?;
    let opts = options(params.depth);
    let ex = explore_signal(&program, &array, &opts)
        .map_err(|e| OpError::bad(e.to_string()))?;
    let report = ExplorationReport::build(&ex, &opts, &MemoryTechnology::new(), &BitCount);
    let _render = span("render");
    Ok(report.to_json())
}

/// Runs `report`: one explore document per read signal of the program,
/// exactly as `datareuse report <kernel> --json` prints it.
pub fn report(kernel: &str) -> Result<String, OpError> {
    let program = {
        let _load = span("load");
        load_kernel(kernel).map_err(OpError::bad)?
    };
    let opts = ExploreOptions::default();
    let tech = MemoryTechnology::new();
    let explorations =
        explore_program(&program, &opts).map_err(|e| OpError::bad(e.to_string()))?;
    let mut out = String::from("[");
    for (i, ex) in explorations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let report = ExplorationReport::build(ex, &opts, &tech, &BitCount);
        let _render = span("render");
        report.write_json(&mut out).expect("a String accepts every write");
    }
    out.push(']');
    Ok(out)
}

/// Runs `pareto`: enumerates and costs the copy-candidate chains of one
/// signal and returns the power–size Pareto front; with a `library`, each
/// front hierarchy is additionally collapsed onto the physical sizes
/// (`datareuse_memmodel::MemoryLibrary::collapse`).
pub fn pareto(params: &ParetoParams) -> Result<String, OpError> {
    let (program, array) = resolve(&params.kernel, params.array.as_deref())?;
    let opts = options(params.depth);
    let ex = explore_signal(&program, &array, &opts)
        .map_err(|e| OpError::bad(e.to_string()))?;
    let library = params
        .library
        .as_ref()
        .map(|sizes| MemoryLibrary::new(sizes.iter().copied()));
    let front = ex.pareto(&opts, &MemoryTechnology::new(), &BitCount);
    let points = front
        .iter()
        .map(|p| {
            let (chain, cost) = &p.payload;
            let virtual_sizes: Vec<u64> = chain.levels.iter().map(|l| l.words).collect();
            let mut row = vec![
                (
                    "level_sizes".to_string(),
                    Json::arr(virtual_sizes.iter().map(|&w| Json::UInt(w))),
                ),
                ("onchip_words".to_string(), Json::UInt(cost.onchip_words)),
                ("power".to_string(), Json::Num(cost.normalized_energy)),
            ];
            if let Some(lib) = &library {
                row.push((
                    "physical".to_string(),
                    Json::arr(
                        lib.collapse(&virtual_sizes)
                            .into_iter()
                            .map(|(size, _)| Json::UInt(size)),
                    ),
                ));
            }
            Json::Obj(row)
        })
        .collect::<Vec<Json>>();
    let mut doc = vec![
        ("array".to_string(), Json::str(array)),
        ("c_tot".to_string(), Json::UInt(ex.c_tot)),
        (
            "background_words".to_string(),
            Json::UInt(ex.background_words),
        ),
        ("points".to_string(), Json::Arr(points)),
    ];
    if let Some(lib) = &library {
        doc.insert(
            3,
            (
                "library".to_string(),
                Json::arr(lib.sizes().iter().map(|&s| Json::UInt(s))),
            ),
        );
    }
    Ok(Json::Obj(doc).to_string())
}

/// Emits the Fig. 8 template for `array` in `program` under `spec` —
/// the single code path behind both `datareuse codegen` and the server's
/// `codegen` op.
pub fn codegen_text(
    program: &Program,
    array: &str,
    spec: &CodegenSpec,
) -> Result<String, String> {
    let (nest_idx, access_idx) = program
        .nests()
        .iter()
        .enumerate()
        .find_map(|(ni, nest)| {
            nest.accesses()
                .iter()
                .position(|a| a.array() == array && a.kind() == AccessKind::Read)
                .map(|ai| (ni, ai))
        })
        .ok_or_else(|| format!("no read access to `{array}`"))?;
    let depth = program.nests()[nest_idx].depth();
    let (outer, inner) = spec
        .pair
        .unwrap_or((depth.saturating_sub(2), depth.saturating_sub(1)));
    let opts = TemplateOptions {
        strategy: spec.strategy,
        single_assignment: spec.single_assignment,
    };
    if let Some(band_depth) = spec.band {
        return if spec.selfcheck {
            emit_selfcheck_band(program, nest_idx, access_idx, band_depth)
        } else {
            emit_band_copy(program, nest_idx, access_idx, band_depth)
        }
        .map_err(|e| e.to_string());
    }
    match (spec.selfcheck, spec.adopt) {
        (true, false) => emit_selfcheck(program, nest_idx, access_idx, outer, inner, opts),
        (true, true) => emit_selfcheck_adopt(program, nest_idx, access_idx, outer, inner, opts),
        (false, true) => emit_transformed_adopt(program, nest_idx, access_idx, outer, inner, opts),
        (false, false) => emit_transformed(program, nest_idx, access_idx, outer, inner, opts),
    }
    .map_err(|e| e.to_string())
}

/// Runs `codegen` for a request: resolves the kernel and array, emits
/// the template, and wraps it as `{"code": "..."}`.
pub fn codegen(params: &CodegenParams) -> Result<String, OpError> {
    let (program, array) = resolve(&params.kernel, params.array.as_deref())?;
    let code = codegen_text(&program, &array, &params.spec).map_err(OpError::bad)?;
    Ok(Json::obj([("code", Json::Str(code))]).to_string())
}

/// Executes a work op (not the control/introspection ops, which the
/// server answers inline) into the text of its `result` document.
pub fn execute(op: &Op) -> Result<String, OpError> {
    match op {
        Op::Explore(params) => explore(params),
        Op::Pareto(params) => pareto(params),
        Op::Report { kernel } => report(kernel),
        Op::Codegen(params) => codegen(params),
        // `batch` is unpacked by the serving loop before dispatch; like
        // the control ops it must never reach a worker whole.
        Op::Stats { .. }
        | Op::Health
        | Op::Trace
        | Op::Prom
        | Op::Memstats
        | Op::Ping
        | Op::Shutdown
        | Op::Batch(_) => Err(OpError {
            code: E_INTERNAL,
            message: "control op reached the worker pool".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_matches_the_report_builder_byte_for_byte() {
        let _serial = crate::serial_test();
        let params = ExploreParams {
            kernel: "me-small".into(),
            array: Some("Old".into()),
            depth: None,
        };
        let via_op = explore(&params).unwrap();
        let program = load_kernel("me-small").unwrap();
        let opts = ExploreOptions::default();
        let ex = explore_signal(&program, "Old", &opts).unwrap();
        let direct =
            ExplorationReport::build(&ex, &opts, &MemoryTechnology::new(), &BitCount).to_json();
        assert_eq!(via_op, direct);
    }

    #[test]
    fn default_array_resolution_matches_the_cli_heuristic() {
        let program = load_kernel("conv2d").unwrap();
        let pick = default_array(&program).unwrap();
        assert!(pick == "image" || pick == "coef", "picked {pick}");
    }

    #[test]
    fn pareto_reports_points_and_collapses_onto_a_library() {
        let _serial = crate::serial_test();
        let params = ParetoParams {
            kernel: "fir".into(),
            array: None,
            depth: None,
            library: Some(vec![16, 64, 256, 1024]),
        };
        let doc = Json::parse(&pareto(&params).unwrap()).unwrap();
        let points = doc.get("points").and_then(Json::as_array).unwrap();
        assert!(!points.is_empty());
        for p in points {
            assert!(p.get("power").and_then(Json::as_f64).is_some());
            assert!(p.get("physical").is_some(), "library collapse present");
        }
        assert_eq!(
            doc.get("library").and_then(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn unknown_kernels_and_arrays_are_bad_requests() {
        let e = explore(&ExploreParams {
            kernel: "/no/such.dr".into(),
            array: None,
            depth: None,
        })
        .unwrap_err();
        assert_eq!(e.code, E_BAD_REQUEST);
        assert!(e.message.starts_with("unknown kernel `/no/such.dr`"), "{}", e.message);
        let e = explore(&ExploreParams {
            kernel: "fir".into(),
            array: Some("nope".into()),
            depth: None,
        })
        .unwrap_err();
        assert_eq!(e.code, E_BAD_REQUEST);
    }

    #[test]
    fn codegen_emits_the_template_through_the_shared_path() {
        let doc = Json::parse(&codegen(&CodegenParams {
            kernel: "me-small".into(),
            array: Some("Old".into()),
            spec: CodegenSpec {
                pair: Some((3, 5)),
                strategy: crate::protocol::parse_strategy(Some("bypass:2")).unwrap(),
                ..CodegenSpec::default()
            },
        })
        .unwrap())
        .unwrap();
        let code = doc.get("code").and_then(Json::as_str).unwrap();
        assert!(code.contains("Old_sub"));
        assert!(code.contains("bypass"));
    }
}
