//! Workload specifications: the parameter space of synthetic data-center
//! applications, with one calibrated preset per paper application.
//!
//! The paper evaluates nine proprietary application traces. We cannot ship
//! those, so each preset encodes the *statistical structure* the paper
//! reports for that application — instruction footprint (Table 3), BTB MPKI
//! band (Fig. 3), unconditional-branch working set (Fig. 11), spatial spread
//! of conditional branches (Fig. 12), and frontend/backend stall balance
//! (Fig. 1) — and the generator fabricates a program with that structure.

use twig_serde::{Deserialize, Serialize};

/// Why a [`WorkloadSpec`] failed validation.
///
/// Specs arrive from two construction paths the `Span`/`Span1` asserts
/// cannot cover: field-by-field literal construction and deserialization,
/// both of which bypass the checked constructors. [`WorkloadSpec::validate`]
/// therefore re-checks every band.
#[derive(Clone, PartialEq, Debug)]
pub enum SpecError {
    /// The structural parameters imply an empty text segment.
    ZeroFootprint,
    /// The terminator mix weights do not sum to ≈ 1 (tolerance 0.05); the
    /// generator normalizes internally, but a far-off total means the spec
    /// author's intended frequencies were silently rescaled.
    MixImbalance {
        /// The actual sum of the mix weights.
        total: f32,
    },
    /// An integer band has `min > max`, or a probability band is out of
    /// order or outside `[0, 1]`.
    BandOutOfOrder {
        /// The offending field's name.
        field: &'static str,
    },
    /// A structural constraint is violated.
    Degenerate {
        /// What is wrong.
        reason: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroFootprint => {
                write!(f, "structural parameters imply a zero-byte text segment")
            }
            SpecError::MixImbalance { total } => write!(
                f,
                "terminator mix sums to {total} (expected ≈ 1 within 0.05)"
            ),
            SpecError::BandOutOfOrder { field } => {
                write!(f, "band {field} is out of order (or outside [0, 1])")
            }
            SpecError::Degenerate { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Relative frequencies of basic-block terminators in generated code.
///
/// Weights need not sum to 1; `Return` terminators are structural (every
/// function ends in one) and are not part of the mix.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct TerminatorMix {
    /// Conditional direct branches (`jcc`). Dominate BTB accesses (Fig. 7).
    pub conditional: f32,
    /// Unconditional direct jumps.
    pub jump: f32,
    /// Direct calls.
    pub call: f32,
    /// Indirect calls (virtual dispatch — prominent in Java/PHP apps).
    pub indirect_call: f32,
    /// Indirect jumps (switch tables, JIT dispatch).
    pub indirect_jump: f32,
    /// Blocks that simply fall through (no branch).
    pub fallthrough: f32,
}

impl TerminatorMix {
    /// A mix typical of compiled server code: conditionals dominate.
    pub const fn server_default() -> Self {
        TerminatorMix {
            conditional: 0.52,
            jump: 0.10,
            call: 0.16,
            indirect_call: 0.05,
            indirect_jump: 0.02,
            fallthrough: 0.15,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> f32 {
        self.conditional
            + self.jump
            + self.call
            + self.indirect_call
            + self.indirect_jump
            + self.fallthrough
    }
}

/// An inclusive integer range used for sampled structural parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Span {
    /// Minimum value (inclusive).
    pub min: u32,
    /// Maximum value (inclusive).
    pub max: u32,
}

impl Span {
    /// Creates a span; `min` must not exceed `max`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub const fn new(min: u32, max: u32) -> Self {
        assert!(min <= max);
        Span { min, max }
    }

    /// Midpoint, used for footprint estimation.
    pub const fn mid(self) -> u32 {
        (self.min + self.max) / 2
    }
}

/// Full description of a synthetic data-center workload.
///
/// Construct via a preset ([`WorkloadSpec::preset`],
/// [`WorkloadSpec::all_apps`]) or start from [`WorkloadSpec::tiny_test`]
/// and adjust fields.
///
/// # Examples
///
/// ```
/// use twig_workload::{AppId, WorkloadSpec};
///
/// let spec = WorkloadSpec::preset(AppId::Cassandra);
/// assert_eq!(spec.name, "cassandra");
/// assert!(spec.estimated_footprint_bytes() > 3 << 20);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable application name.
    pub name: String,
    /// Seed for program *structure* generation (CFG shape, probabilities).
    pub seed: u64,
    /// Number of application (non-library) functions, including dispatcher
    /// and handlers.
    pub app_funcs: u32,
    /// Number of shared-library functions (placed in a distant text region).
    pub lib_funcs: u32,
    /// Number of request-handler functions dispatched by the event loop.
    pub handlers: u32,
    /// Zipf skew of handler popularity (0 = uniform; higher = hotter head).
    pub handler_zipf: f64,
    /// Blocks per function.
    pub blocks_per_func: Span,
    /// Original instructions per block (terminator included).
    pub instrs_per_block: Span,
    /// Mean instruction size in bytes per block (sampled per block,
    /// modelling a variable-length ISA).
    pub instr_bytes: Span,
    /// Terminator mix for non-structural blocks.
    pub mix: TerminatorMix,
    /// Number of call-depth levels below the handlers. Bounds recursion-free
    /// call chains.
    pub call_levels: u32,
    /// Candidate-callee fan-out of each indirect call site.
    pub indirect_call_fanout: Span,
    /// Target fan-out of each indirect jump site.
    pub indirect_jump_fanout: Span,
    /// Fraction of conditional branches that are loop back-edges.
    pub loop_fraction: f32,
    /// Taken probability assigned to loop back-edges.
    pub loop_taken_prob: Span1,
    /// Taken probability for biased forward conditionals (the complement
    /// class gets `1 - p`).
    pub biased_taken_prob: Span1,
    /// Fraction of conditionals that are unbiased (taken prob near 0.5).
    pub unbiased_fraction: f32,
    /// Fraction of call sites that target the shared-library region.
    /// Library functions are few and hot (BTB-resident), so this dial
    /// controls the share of short-reuse-distance branch traffic.
    pub library_call_fraction: f32,
    /// Extra backend-stall cycles per kilo-instruction, modelling D-cache
    /// and dependency stalls. Calibrates the Fig.-1 frontend/backend split.
    pub backend_extra_cpki: f64,
    /// Padding between functions in the layout (bytes).
    pub inter_function_pad: u64,
}

/// An inclusive `f32` range for sampled probabilities.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Span1 {
    /// Minimum value (inclusive).
    pub min: f32,
    /// Maximum value (inclusive).
    pub max: f32,
}

impl Span1 {
    /// Creates a probability span; requires `0 ≤ min ≤ max ≤ 1`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are out of order or outside `[0, 1]`.
    pub fn new(min: f32, max: f32) -> Self {
        assert!((0.0..=1.0).contains(&min) && min <= max && max <= 1.0);
        Span1 { min, max }
    }
}

/// The nine data-center applications evaluated in the paper (§2, Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AppId {
    /// Apache Cassandra (NoSQL DBMS, Java DaCapo).
    Cassandra,
    /// Drupal on HHVM (Facebook OSS-performance).
    Drupal,
    /// Twitter Finagle microblogging service (Java Renaissance).
    FinagleChirper,
    /// Twitter Finagle HTTP server (Java Renaissance).
    FinagleHttp,
    /// Apache Kafka (stream processing, Java DaCapo).
    Kafka,
    /// MediaWiki on HHVM.
    Mediawiki,
    /// Apache Tomcat (Java web server, DaCapo).
    Tomcat,
    /// Verilator (RTL simulation; the largest footprint and MPKI).
    Verilator,
    /// WordPress on HHVM.
    Wordpress,
}

impl AppId {
    /// All nine applications, in the paper's figure order.
    pub const ALL: [AppId; 9] = [
        AppId::Cassandra,
        AppId::Drupal,
        AppId::FinagleChirper,
        AppId::FinagleHttp,
        AppId::Kafka,
        AppId::Mediawiki,
        AppId::Tomcat,
        AppId::Verilator,
        AppId::Wordpress,
    ];

    /// Lower-case display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            AppId::Cassandra => "cassandra",
            AppId::Drupal => "drupal",
            AppId::FinagleChirper => "finagle-chirper",
            AppId::FinagleHttp => "finagle-http",
            AppId::Kafka => "kafka",
            AppId::Mediawiki => "mediawiki",
            AppId::Tomcat => "tomcat",
            AppId::Verilator => "verilator",
            AppId::Wordpress => "wordpress",
        }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl WorkloadSpec {
    /// A deliberately small spec for unit tests: generates in microseconds
    /// and exercises every terminator kind.
    pub fn tiny_test() -> Self {
        WorkloadSpec {
            name: "tiny-test".to_owned(),
            seed: 0x7716_0001,
            app_funcs: 40,
            lib_funcs: 10,
            handlers: 4,
            handler_zipf: 0.8,
            blocks_per_func: Span::new(3, 10),
            instrs_per_block: Span::new(3, 9),
            instr_bytes: Span::new(3, 5),
            mix: TerminatorMix::server_default(),
            call_levels: 4,
            indirect_call_fanout: Span::new(2, 4),
            indirect_jump_fanout: Span::new(2, 5),
            loop_fraction: 0.2,
            loop_taken_prob: Span1::new(0.70, 0.92),
            biased_taken_prob: Span1::new(0.04, 0.18),
            unbiased_fraction: 0.15,
            library_call_fraction: 0.3,
            backend_extra_cpki: 120.0,
            inter_function_pad: 0,
        }
    }

    /// The calibrated preset for one paper application.
    ///
    /// Calibration (see DESIGN.md §6) targets the paper's per-app BTB MPKI
    /// band (Fig. 3), frontend-bound share (Fig. 1), footprint ordering
    /// (Table 3), and the ideal-BTB speedup shape (Fig. 2); `experiments
    /// fig01 fig02 fig03 tab03` reports each of them. Two structural properties matter most:
    /// *shallow* call graphs with balanced (rotor-assigned) callees keep the
    /// execution profile flat, as in real data-center services, and the
    /// `loop_fraction`/`library_call_fraction` dials control the share of
    /// short-reuse-distance branch traffic (BTB hits).
    pub fn preset(app: AppId) -> Self {
        if app == AppId::Verilator {
            // Generated RTL evaluation code: an enormous, nearly flat
            // instruction sweep of branchy straight-line code. Jump-heavy
            // (dispatch between generated evaluation snippets), tiny hot
            // library, almost no loops: the BTB misses on most taken
            // branches, reproducing the paper's 121-MPKI outlier.
            return WorkloadSpec {
                name: app.name().to_owned(),
                seed: 0xD47A_0000 + app as u64,
                app_funcs: 5500,
                lib_funcs: 200,
                handlers: 400,
                handler_zipf: 0.02,
                blocks_per_func: Span::new(40, 120),
                instrs_per_block: Span::new(2, 5),
                instr_bytes: Span::new(3, 5),
                mix: TerminatorMix {
                    conditional: 0.30,
                    jump: 0.28,
                    call: 0.05,
                    indirect_call: 0.01,
                    indirect_jump: 0.03,
                    fallthrough: 0.33,
                },
                call_levels: 2,
                indirect_call_fanout: Span::new(2, 4),
                indirect_jump_fanout: Span::new(2, 8),
                loop_fraction: 0.01,
                loop_taken_prob: Span1::new(0.70, 0.92),
                biased_taken_prob: Span1::new(0.002, 0.025),
                unbiased_fraction: 0.01,
                library_call_fraction: 0.02,
                backend_extra_cpki: 60.0,
                inter_function_pad: 0,
            };
        }
        // The eight service applications share one structural recipe and
        // differ in size, handler skew, hit-traffic dials, and backend
        // stall factor: (app_funcs, lib_funcs, handlers, handler_zipf,
        // blocks, loop_fraction, library_call_fraction, backend cpki).
        let (app_funcs, lib_funcs, handlers, zipf, blocks, loops, lib_frac, cpki) = match app {
            AppId::Cassandra => (6800, 700, 64, 0.35, (12, 40), 0.005, 0.25, 800.0),
            AppId::Drupal => (2800, 400, 48, 0.45, (12, 38), 0.02, 0.30, 200.0),
            AppId::FinagleChirper => (3300, 450, 48, 0.45, (12, 38), 0.015, 0.30, 620.0),
            AppId::FinagleHttp => (8600, 900, 72, 0.40, (12, 40), 0.01, 0.28, 850.0),
            AppId::Kafka => (5300, 700, 48, 0.60, (10, 34), 0.035, 0.35, 550.0),
            AppId::Mediawiki => (3600, 500, 44, 0.50, (12, 38), 0.025, 0.30, 120.0),
            AppId::Tomcat => (3900, 550, 44, 0.65, (10, 34), 0.045, 0.35, 650.0),
            AppId::Wordpress => (3100, 420, 44, 0.50, (12, 38), 0.028, 0.30, 220.0),
            AppId::Verilator => unreachable!("handled above"),
        };
        WorkloadSpec {
            name: app.name().to_owned(),
            seed: 0xD47A_0000 + app as u64,
            app_funcs,
            lib_funcs,
            handlers,
            handler_zipf: zipf,
            blocks_per_func: Span::new(blocks.0, blocks.1),
            instrs_per_block: Span::new(3, 9),
            instr_bytes: Span::new(3, 5),
            mix: TerminatorMix {
                conditional: 0.50,
                jump: 0.08,
                call: 0.10,
                indirect_call: 0.04,
                indirect_jump: 0.02,
                fallthrough: 0.26,
            },
            call_levels: 3,
            indirect_call_fanout: Span::new(2, 5),
            indirect_jump_fanout: Span::new(2, 8),
            loop_fraction: loops,
            loop_taken_prob: Span1::new(0.70, 0.92),
            biased_taken_prob: Span1::new(0.002, 0.02),
            unbiased_fraction: 0.01,
            library_call_fraction: lib_frac,
            backend_extra_cpki: cpki,
            inter_function_pad: 0,
        }
    }

    /// All nine presets in figure order.
    pub fn all_apps() -> Vec<WorkloadSpec> {
        AppId::ALL.iter().map(|&a| WorkloadSpec::preset(a)).collect()
    }

    /// Rough expected text-segment size implied by the structural
    /// parameters, in bytes.
    pub fn estimated_footprint_bytes(&self) -> u64 {
        let funcs = u64::from(self.app_funcs + self.lib_funcs);
        let blocks = u64::from(self.blocks_per_func.mid());
        let instrs = u64::from(self.instrs_per_block.mid());
        let bytes = u64::from(self.instr_bytes.mid());
        funcs * blocks * instrs * bytes
    }

    /// Validates internal consistency. Bands are re-checked here because
    /// literal construction and deserialization bypass the [`Span`] /
    /// [`Span1`] constructor asserts.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        fn degenerate(reason: impl Into<String>) -> SpecError {
            SpecError::Degenerate {
                reason: reason.into(),
            }
        }
        if self.handlers == 0 {
            return Err(degenerate("handlers must be >= 1"));
        }
        if self.app_funcs < self.handlers + 1 {
            return Err(degenerate(format!(
                "app_funcs ({}) must exceed handlers ({}) plus dispatcher",
                self.app_funcs, self.handlers
            )));
        }
        for (field, span) in [
            ("blocks_per_func", self.blocks_per_func),
            ("instrs_per_block", self.instrs_per_block),
            ("instr_bytes", self.instr_bytes),
            ("indirect_call_fanout", self.indirect_call_fanout),
            ("indirect_jump_fanout", self.indirect_jump_fanout),
        ] {
            if span.min > span.max {
                return Err(SpecError::BandOutOfOrder { field });
            }
        }
        for (field, span) in [
            ("loop_taken_prob", self.loop_taken_prob),
            ("biased_taken_prob", self.biased_taken_prob),
        ] {
            if !(span.min >= 0.0 && span.min <= span.max && span.max <= 1.0) {
                return Err(SpecError::BandOutOfOrder { field });
            }
        }
        if self.blocks_per_func.min < 2 {
            return Err(degenerate("functions need at least 2 blocks (body + return)"));
        }
        if self.instrs_per_block.min < 1 {
            return Err(degenerate("blocks need at least 1 instruction"));
        }
        if self.estimated_footprint_bytes() == 0 {
            return Err(SpecError::ZeroFootprint);
        }
        let total = self.mix.total();
        if !total.is_finite() || (total - 1.0).abs() > 0.05 {
            return Err(SpecError::MixImbalance { total });
        }
        if self.call_levels == 0 {
            return Err(degenerate("call_levels must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.loop_fraction)
            || !(0.0..=1.0).contains(&self.unbiased_fraction)
            || !(0.0..=1.0).contains(&self.library_call_fraction)
        {
            return Err(degenerate("fractions must be within [0, 1]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for spec in WorkloadSpec::all_apps() {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
        WorkloadSpec::tiny_test().validate().unwrap();
    }

    #[test]
    fn preset_names_match_paper() {
        let names: Vec<_> = WorkloadSpec::all_apps().iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "cassandra",
                "drupal",
                "finagle-chirper",
                "finagle-http",
                "kafka",
                "mediawiki",
                "tomcat",
                "verilator",
                "wordpress"
            ]
        );
    }

    #[test]
    fn footprints_are_ordered_like_table3() {
        // verilator must be by far the largest; wordpress/drupal smallest.
        // Static estimates track Table 3's ordering for the service apps.
        // (Verilator's *executed* footprint is the largest by ~2x — see
        // tab03's workingSetMB — but its short instructions make the static
        // estimate comparable to finagle-http's, so it is compared against
        // the mid-size apps here.)
        let f = |a| WorkloadSpec::preset(a).estimated_footprint_bytes();
        assert!(f(AppId::Verilator) > f(AppId::Cassandra));
        assert!(f(AppId::FinagleHttp) > f(AppId::Cassandra));
        assert!(f(AppId::Cassandra) > f(AppId::Drupal));
        assert!(f(AppId::Drupal) > f(AppId::Tomcat) / 2);
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<_> = WorkloadSpec::all_apps().iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 9);
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut s = WorkloadSpec::tiny_test();
        s.handlers = 0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::tiny_test();
        s.app_funcs = s.handlers; // no room for dispatcher
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::tiny_test();
        s.blocks_per_func = Span::new(1, 1);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_types_band_mix_and_footprint_errors() {
        // Out-of-order integer band, built literally (bypasses Span::new).
        let mut s = WorkloadSpec::tiny_test();
        s.instrs_per_block = Span { min: 9, max: 3 };
        assert_eq!(
            s.validate(),
            Err(SpecError::BandOutOfOrder {
                field: "instrs_per_block"
            })
        );

        // Probability band escaping [0, 1].
        let mut s = WorkloadSpec::tiny_test();
        s.loop_taken_prob = Span1 { min: 0.2, max: 1.5 };
        assert_eq!(
            s.validate(),
            Err(SpecError::BandOutOfOrder {
                field: "loop_taken_prob"
            })
        );

        // Zero-size footprint: zero-byte instructions.
        let mut s = WorkloadSpec::tiny_test();
        s.instr_bytes = Span { min: 0, max: 0 };
        assert_eq!(s.validate(), Err(SpecError::ZeroFootprint));

        // Mix weights far from 1.
        let mut s = WorkloadSpec::tiny_test();
        s.mix.conditional = 3.0;
        assert!(matches!(
            s.validate(),
            Err(SpecError::MixImbalance { total }) if total > 3.0
        ));

        // Errors render as readable text.
        let text = SpecError::MixImbalance { total: 2.5 }.to_string();
        assert!(text.contains("2.5"), "{text}");
    }

    #[test]
    fn span_midpoint() {
        assert_eq!(Span::new(4, 10).mid(), 7);
        assert_eq!(Span::new(3, 3).mid(), 3);
    }
}
