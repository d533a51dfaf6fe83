//! Experiment harness for the Twig reproduction: regenerates every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Run via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p twig-bench --bin experiments -- fig16
//! cargo run --release -p twig-bench --bin experiments -- all
//! ```

pub mod cache;
pub mod chart;
pub mod exp;
pub mod manifest;
pub mod runner;
pub mod shapes;
pub mod telemetry;

pub use cache::{ArtifactCache, CacheStats};
pub use runner::{Cell, CellValue, ExpContext, HeadlineRow, RowMeta};

/// All experiment identifiers, in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
    "fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "tab01", "tab02",
    "tab03", "ext01", "ext02",
];

/// Runs one experiment by id, returning its report text.
///
/// # Errors
///
/// Returns an error string for unknown ids.
pub fn run_experiment(id: &str, ctx: &ExpContext) -> Result<String, String> {
    let report = match id {
        "fig01" => exp::characterization::fig01(ctx),
        "fig02" => exp::characterization::fig02(ctx),
        "fig03" => exp::characterization::fig03(ctx),
        "fig04" => exp::characterization::fig04(ctx),
        "fig05" => exp::characterization::fig05(ctx),
        "fig06" => exp::characterization::fig06(ctx),
        "fig07" => exp::characterization::fig07(ctx),
        "fig08" => exp::characterization::fig08(ctx),
        "fig09" => exp::characterization::fig09(ctx),
        "fig10" => exp::characterization::fig10(ctx),
        "fig11" => exp::characterization::fig11(ctx),
        "fig12" => exp::characterization::fig12(ctx),
        "fig13" => exp::twig_results::fig13(ctx),
        "fig14" => exp::twig_results::fig14(ctx),
        "fig15" => exp::twig_results::fig15(ctx),
        "fig16" => exp::twig_results::fig16(ctx),
        "fig17" => exp::twig_results::fig17(ctx),
        "fig18" => exp::twig_results::fig18(ctx),
        "fig19" => exp::twig_results::fig19(ctx),
        "fig20" => exp::twig_results::fig20(ctx),
        "fig21" => exp::twig_results::fig21(ctx),
        "fig22" => exp::twig_results::fig22(ctx),
        "fig23" => exp::sensitivity::fig23(ctx),
        "fig24" => exp::sensitivity::fig24(ctx),
        "fig25" => exp::sensitivity::fig25(ctx),
        "fig26" => exp::sensitivity::fig26(ctx),
        "fig27" => exp::sensitivity::fig27(ctx),
        "fig28" => exp::sensitivity::fig28(ctx),
        "tab01" => exp::sensitivity::tab01(ctx),
        "tab02" => exp::twig_results::tab02(ctx),
        "tab03" => exp::twig_results::tab03(ctx),
        "ext01" => exp::extensions::ext01(ctx),
        "ext02" => exp::extensions::ext02(ctx),
        other => return Err(format!("unknown experiment id: {other}")),
    };
    Ok(report)
}
