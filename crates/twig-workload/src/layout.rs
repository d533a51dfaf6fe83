//! Binary layout: assigning concrete addresses to every basic block.
//!
//! The layout models a linked x86 binary's text segment: functions are
//! placed back-to-back (16-byte aligned) starting at [`TEXT_BASE`], blocks
//! within a function are contiguous, and the `brcoalesce` key-value table is
//! appended after the last function (the paper stores it "as part of the
//! text segment", §3.2).
//!
//! The same pass runs both for freshly generated programs and after the Twig
//! rewriter grows blocks with prefetch instructions — re-layout after
//! injection is exactly what a link-time rewriter like BOLT does.

use twig_types::{Addr, FuncId};

use crate::program::Program;

/// Base address of the simulated text segment (canonical x86-64 user text).
pub const TEXT_BASE: u64 = 0x40_0000;

/// Function alignment in bytes.
pub const FUNCTION_ALIGN: u64 = 16;

/// Options controlling placement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LayoutOptions {
    /// Base address of the text segment.
    pub text_base: u64,
    /// Extra padding inserted between functions, in bytes. Models linker
    /// padding/PLT thunks and spreads the footprint (raising conflict-miss
    /// pressure for the same number of branches).
    pub inter_function_pad: u64,
    /// Optional distinct base for "library" functions (see
    /// [`Program`] generation): functions with ids at or above this index
    /// are placed in a second, distant region, producing the large
    /// branch-to-target offsets of Fig. 15.
    pub library_split: Option<LibrarySplit>,
}

/// Placement of shared-library functions in a distant region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LibrarySplit {
    /// First function id belonging to the library region.
    pub first_library_func: u32,
    /// Base address of the library region.
    pub library_base: u64,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            text_base: TEXT_BASE,
            inter_function_pad: 0,
            library_split: None,
        }
    }
}

/// Assigns addresses to every block of `program` according to `options`,
/// then places the coalesce table after the last placed byte.
///
/// Blocks within a function stay contiguous in id order, which preserves the
/// CFG invariant that fall-through/not-taken successors are physically next.
///
/// # Examples
///
/// ```
/// use twig_workload::{layout, LayoutOptions, ProgramGenerator, WorkloadSpec};
///
/// let mut program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// layout::assign_layout(&mut program, &LayoutOptions::default());
/// let entry = program.function(program.entry_function()).entry;
/// assert_eq!(program.block(entry).addr.raw() % 16, 0);
/// ```
pub fn assign_layout(program: &mut Program, options: &LayoutOptions) {
    let mut cursor = options.text_base;
    let mut max_end = cursor;
    let func_ids: Vec<FuncId> = program.functions().map(|f| f.id).collect();
    for fid in func_ids {
        if let Some(split) = options.library_split {
            if fid.raw() == split.first_library_func {
                cursor = split.library_base;
            }
        }
        cursor = align_up(cursor, FUNCTION_ALIGN);
        let func = program.function(fid).clone();
        for bid in func.block_ids() {
            program.set_addr(bid, Addr::new(cursor));
            cursor += u64::from(program.block(bid).size_bytes());
        }
        cursor += options.inter_function_pad;
        max_end = max_end.max(cursor);
    }
    let table_base = align_up(max_end, FUNCTION_ALIGN);
    program.set_coalesce_table_addr(Addr::new(table_base));
}

/// Rounds `v` up to a multiple of `align` (which must be a power of two).
#[inline]
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramGenerator, WorkloadSpec};
    use twig_types::BlockId;

    #[test]
    fn align_up_rounds() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 16), 32);
    }

    #[test]
    fn blocks_are_contiguous_within_functions() {
        let mut p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        assign_layout(&mut p, &LayoutOptions::default());
        for func in p.functions() {
            let ids: Vec<BlockId> = func.block_ids().collect();
            for pair in ids.windows(2) {
                let a = p.block(pair[0]);
                let b = p.block(pair[1]);
                assert_eq!(a.end_addr(), b.addr, "gap inside {}", func.id);
            }
        }
    }

    #[test]
    fn functions_do_not_overlap() {
        let mut p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        assign_layout(&mut p, &LayoutOptions::default());
        let mut spans: Vec<(u64, u64)> = p
            .functions()
            .map(|f| {
                let first = p.block(BlockId::new(f.first_block)).addr.raw();
                let last = p.block(BlockId::new(f.last_block - 1)).end_addr().raw();
                (first, last)
            })
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping functions");
        }
    }

    #[test]
    fn relayout_after_growth_restores_contiguity() {
        let mut p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        assign_layout(&mut p, &LayoutOptions::default());
        // Grow an early block, then re-layout: later blocks must shift.
        let victim = BlockId::new(0);
        let op = twig_types::PrefetchOp::BrPrefetch {
            branch_block: BlockId::new(1),
        };
        p.set_prefetch_ops(vec![(victim, op)]);
        let before_last = p.block(BlockId::new(p.num_blocks() as u32 - 1)).addr;
        assign_layout(&mut p, &LayoutOptions::default());
        let after_last = p.block(BlockId::new(p.num_blocks() as u32 - 1)).addr;
        assert!(after_last >= before_last);
        // Contiguity still holds.
        for func in p.functions() {
            let ids: Vec<BlockId> = func.block_ids().collect();
            for pair in ids.windows(2) {
                assert_eq!(p.block(pair[0]).end_addr(), p.block(pair[1]).addr);
            }
        }
    }

    #[test]
    fn library_split_separates_regions() {
        let mut p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let split_at = (p.num_functions() / 2) as u32;
        let opts = LayoutOptions {
            library_split: Some(LibrarySplit {
                first_library_func: split_at,
                library_base: 0x7000_0000,
            }),
            ..LayoutOptions::default()
        };
        assign_layout(&mut p, &opts);
        for func in p.functions() {
            let addr = p.block(func.entry).addr.raw();
            if func.id.raw() < split_at {
                assert!(addr < 0x7000_0000);
            } else {
                assert!(addr >= 0x7000_0000);
            }
        }
    }

    #[test]
    fn coalesce_table_sits_after_code() {
        let mut p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        assign_layout(&mut p, &LayoutOptions::default());
        let code_end = p
            .blocks()
            .map(|(_, b)| b.end_addr().raw())
            .max()
            .unwrap();
        assert!(p.coalesce_entry_addr(0).raw() >= code_end);
    }
}
