//! The synthetic program model: functions, basic blocks, terminators.
//!
//! A [`Program`] is the stand-in for the multi-megabyte x86 binaries the
//! paper profiles. It is a complete control-flow graph with a concrete
//! binary layout (every block has an address and a byte size), so that the
//! frontend simulator can model I-cache lines, BTB indices, and signed
//! address offsets exactly as it would for a real binary. The graph is
//! shared between a pristine binary and its rewrites; each binary owns
//! only its layout.

use std::sync::Arc;

use twig_serde::{Deserialize, Serialize};
use twig_types::{Addr, BlockId, BranchKind, BranchOutcome, BranchRecord, FuncId, PrefetchOp};

/// How a basic block transfers control when it finishes executing.
///
/// Block references are stable [`BlockId`]s; the concrete branch-instruction
/// addresses are a function of the current [layout](crate::layout).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Terminator {
    /// No control transfer: execution continues at `next` (which the layout
    /// guarantees to be the physically following block).
    FallThrough {
        /// The successor block.
        next: BlockId,
    },
    /// Conditional direct branch (`jcc`).
    Conditional {
        /// Target if taken.
        taken: BlockId,
        /// Successor if not taken (physically next block).
        not_taken: BlockId,
        /// Base probability of the branch being taken; the workload input
        /// configuration may skew this per input.
        taken_prob: f32,
    },
    /// Unconditional direct jump (`jmp rel`).
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Direct call; control returns to `return_to` when the callee returns.
    Call {
        /// Called function.
        callee: FuncId,
        /// Block executed after the callee returns (physically next block).
        return_to: BlockId,
    },
    /// Indirect jump with a weighted set of observed targets.
    IndirectJump {
        /// The `(target, weight)` pairs in the CFG's jump table
        /// ([`Program::indirect_targets`]); weights need not be normalized.
        targets: TargetSpan,
    },
    /// Indirect call with a weighted set of observed callees.
    IndirectCall {
        /// The `(callee, weight)` pairs in the CFG's call table
        /// ([`Program::indirect_callees`]); weights need not be normalized.
        callees: TargetSpan,
        /// Block executed after the callee returns (physically next block).
        return_to: BlockId,
    },
    /// Function return.
    Return,
}

impl Terminator {
    /// The branch kind of this terminator, or `None` for a fall-through.
    pub fn branch_kind(&self) -> Option<BranchKind> {
        match self {
            Terminator::FallThrough { .. } => None,
            Terminator::Conditional { .. } => Some(BranchKind::Conditional),
            Terminator::Jump { .. } => Some(BranchKind::DirectJump),
            Terminator::Call { .. } => Some(BranchKind::DirectCall),
            Terminator::IndirectJump { .. } => Some(BranchKind::IndirectJump),
            Terminator::IndirectCall { .. } => Some(BranchKind::IndirectCall),
            Terminator::Return => Some(BranchKind::Return),
        }
    }

    /// The statically known taken-target block for direct branches.
    ///
    /// `None` for fall-throughs, indirect branches, and returns.
    pub fn direct_target(&self) -> Option<BlockId> {
        match self {
            Terminator::Conditional { taken, .. } => Some(*taken),
            Terminator::Jump { target } => Some(*target),
            _ => None,
        }
    }
}

/// A `(start, len)` range of one of the CFG's indirect-target tables.
///
/// Indirect terminators name their weighted target lists by span, so a
/// [`Terminator`] holds no heap data and a [`BasicBlock`] is `Copy`. Spans
/// are minted by [`TargetTables`] and resolved by
/// [`Program::indirect_targets`] / [`Program::indirect_callees`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TargetSpan {
    start: u32,
    len: u32,
}

impl TargetSpan {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The weighted target lists of every indirect branch of one CFG, in two
/// flat tables: jump targets and call targets.
///
/// The generator and [`ProgramBuilder`](crate::ProgramBuilder) fill it
/// while they build blocks, and [`Program::from_parts`] takes it with the
/// blocks.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct TargetTables {
    jumps: Vec<(BlockId, f32)>,
    calls: Vec<(FuncId, f32)>,
}

impl TargetTables {
    /// Appends an indirect jump's `(target, weight)` list and returns its
    /// terminator, or `None` (table unchanged) when the list is empty.
    pub fn indirect_jump(
        &mut self,
        targets: impl IntoIterator<Item = (BlockId, f32)>,
    ) -> Option<Terminator> {
        let targets = append(&mut self.jumps, targets)?;
        Some(Terminator::IndirectJump { targets })
    }

    /// Appends an indirect call's `(callee, weight)` list and returns its
    /// terminator, or `None` (table unchanged) when the list is empty.
    pub fn indirect_call(
        &mut self,
        callees: impl IntoIterator<Item = (FuncId, f32)>,
        return_to: BlockId,
    ) -> Option<Terminator> {
        let callees = append(&mut self.calls, callees)?;
        Some(Terminator::IndirectCall { callees, return_to })
    }

    /// The `(target, weight)` pairs of an indirect jump's span.
    #[inline]
    pub(crate) fn jump_targets(&self, span: TargetSpan) -> &[(BlockId, f32)] {
        &self.jumps[span.range()]
    }

    /// The `(callee, weight)` pairs of an indirect call's span.
    #[inline]
    pub(crate) fn call_targets(&self, span: TargetSpan) -> &[(FuncId, f32)] {
        &self.calls[span.range()]
    }
}

/// Appends `items` to `table` and returns their span; `None` if empty.
fn append<T>(table: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Option<TargetSpan> {
    let start = table.len();
    table.extend(items);
    if table.len() == start {
        return None;
    }
    let end = u32::try_from(table.len()).expect("indirect-target table exceeds u32 entries");
    let start = start as u32;
    Some(TargetSpan {
        start,
        len: end - start,
    })
}

/// One basic block of the synthetic program: what the generator decides.
///
/// Where the block sits and which prefetch ops precede it are decided by
/// the linker and the rewriter and live in the [`Program`]'s per-binary
/// layout; [`Program::block`] joins both into a [`BlockView`].
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Owning function.
    pub func: FuncId,
    /// Number of *original* program instructions, including the terminator
    /// branch (if any) but excluding injected prefetch operations.
    pub num_instrs: u32,
    /// Byte size of the original instructions (terminator included).
    pub body_bytes: u32,
    /// Byte size of the terminator branch instruction (0 for fall-through).
    pub term_bytes: u32,
    /// Control transfer at the end of the block.
    pub term: Terminator,
}

impl BasicBlock {
    /// Branch kind of the terminator, if it is a branch.
    #[inline]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        self.term.branch_kind()
    }
}

/// One block of one binary: the shared [`BasicBlock`] (reached through
/// `Deref`) plus its address and injected ops in that binary's layout.
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    block: &'a BasicBlock,
    /// First-byte address of the block in this binary's layout.
    pub addr: Addr,
    /// Software BTB prefetch operations injected by the Twig rewriter.
    ///
    /// Prefetch ops execute at the *start* of the block (they are placed
    /// before the original instructions so they retire before the block's
    /// own branch, maximizing timeliness).
    pub prefetch_ops: &'a [PrefetchOp],
}

impl std::ops::Deref for BlockView<'_> {
    type Target = BasicBlock;

    #[inline]
    fn deref(&self) -> &BasicBlock {
        self.block
    }
}

impl BlockView<'_> {
    /// Total byte size in this layout, including injected ops.
    #[inline]
    pub fn size_bytes(&self) -> u32 {
        self.block.body_bytes + self.prefetch_bytes()
    }

    /// Bytes of injected prefetch operations.
    #[inline]
    pub fn prefetch_bytes(&self) -> u32 {
        self.prefetch_ops.iter().map(|op| op.encoded_bytes()).sum()
    }

    /// Total dynamic instruction count per execution, including injected ops.
    #[inline]
    pub fn total_instrs(&self) -> u32 {
        self.block.num_instrs + self.prefetch_ops.len() as u32
    }

    /// Address of the terminator branch instruction.
    ///
    /// For fall-through blocks this is the address of the last instruction
    /// (which is not a branch); callers should check
    /// [`BasicBlock::branch_kind`].
    #[inline]
    pub fn branch_pc(&self) -> Addr {
        self.addr + u64::from(self.size_bytes() - self.block.term_bytes.max(1))
    }

    /// Address of the first byte after the block (fall-through address).
    #[inline]
    pub fn end_addr(&self) -> Addr {
        self.addr + u64::from(self.size_bytes())
    }
}

/// One function: a contiguous, dense range of block ids.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Function {
    /// This function's id.
    pub id: FuncId,
    /// Entry block (always the first block of the range).
    pub entry: BlockId,
    /// First block id of the function (inclusive).
    pub first_block: u32,
    /// One past the last block id of the function.
    pub last_block: u32,
}

impl Function {
    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> u32 {
        self.last_block - self.first_block
    }

    /// Iterator over the function's block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (self.first_block..self.last_block).map(BlockId::new)
    }
}

/// The control-flow graph: functions and blocks as the generator built
/// them. Immutable once built; every binary of one application (pristine
/// and each rewrite) shares it.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct Cfg {
    functions: Vec<Function>,
    blocks: Vec<BasicBlock>,
    targets: TargetTables,
    entry_function: FuncId,
}

/// A complete synthetic program: a shared CFG plus this binary's layout.
///
/// The layout is what the linker and the rewriter decide: one address per
/// block, the injected prefetch ops in one flat table indexed by block, and
/// the coalesce table with its address. Cloning a program copies only the
/// layout, so a rewritten binary costs about 12 bytes per block on top of
/// the CFG it shares with the pristine one.
///
/// # Examples
///
/// Programs are normally produced by the [generator](crate::generator) from a
/// [`WorkloadSpec`](crate::WorkloadSpec):
///
/// ```
/// use twig_workload::{ProgramGenerator, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// assert!(program.num_blocks() > 0);
/// let entry = program.function(program.entry_function());
/// assert_eq!(entry.entry.index() as u32, entry.first_block);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Program {
    cfg: Arc<Cfg>,
    /// First-byte address of every block, by block id.
    addrs: Vec<Addr>,
    /// Block `i`'s ops are `ops[op_start[i]..op_start[i + 1]]`. Both are
    /// empty while the binary carries no ops.
    op_start: Vec<u32>,
    ops: Vec<PrefetchOp>,
    /// Sorted key-value table for `brcoalesce` (block ids whose terminator
    /// branches are prefetchable via the table). Laid out in the text
    /// segment after the last function.
    coalesce_table: Vec<BlockId>,
    /// Address of the first coalesce-table entry in the current layout.
    coalesce_table_addr: Addr,
}

impl Program {
    /// Assembles a program from parts: the generator's and the builder's
    /// blocks with the target tables their indirect terminators index, all
    /// at address zero and without ops until
    /// [`assign_layout`](crate::layout::assign_layout) places them.
    /// Invariants (dense function ranges, valid ids) are checked in debug
    /// builds.
    pub fn from_parts(
        functions: Vec<Function>,
        blocks: Vec<BasicBlock>,
        targets: TargetTables,
        entry: FuncId,
    ) -> Self {
        debug_assert!(entry.index() < functions.len());
        debug_assert!(functions
            .iter()
            .enumerate()
            .all(|(i, f)| f.id.index() == i && f.first_block <= f.last_block));
        Program {
            addrs: vec![Addr::ZERO; blocks.len()],
            cfg: Arc::new(Cfg {
                functions,
                blocks,
                targets,
                entry_function: entry,
            }),
            op_start: Vec::new(),
            ops: Vec::new(),
            coalesce_table: Vec::new(),
            coalesce_table_addr: Addr::ZERO,
        }
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.addrs.len()
    }

    /// Number of functions.
    #[inline]
    pub fn num_functions(&self) -> usize {
        self.cfg.functions.len()
    }

    /// The program entry function (the event-loop dispatcher).
    #[inline]
    pub fn entry_function(&self) -> FuncId {
        self.cfg.entry_function
    }

    /// Looks up a block in this binary's layout.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> BlockView<'_> {
        let i = id.index();
        let prefetch_ops = if self.op_start.is_empty() {
            &[]
        } else {
            &self.ops[self.op_start[i] as usize..self.op_start[i + 1] as usize]
        };
        BlockView {
            block: &self.cfg.blocks[i],
            addr: self.addrs[i],
            prefetch_ops,
        }
    }

    /// Sets one block's address (layout pass only).
    #[inline]
    pub(crate) fn set_addr(&mut self, id: BlockId, addr: Addr) {
        self.addrs[id.index()] = addr;
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.cfg.functions[id.index()]
    }

    /// Iterator over all blocks with their ids.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, BlockView<'_>)> {
        (0..self.num_blocks() as u32).map(|i| {
            let id = BlockId::new(i);
            (id, self.block(id))
        })
    }

    /// The `(target, weight)` pairs of an indirect jump's span.
    #[inline]
    pub fn indirect_targets(&self, span: TargetSpan) -> &[(BlockId, f32)] {
        self.cfg.targets.jump_targets(span)
    }

    /// The `(callee, weight)` pairs of an indirect call's span.
    #[inline]
    pub fn indirect_callees(&self, span: TargetSpan) -> &[(FuncId, f32)] {
        self.cfg.targets.call_targets(span)
    }

    /// Iterator over all functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.cfg.functions.iter()
    }

    /// Every injected prefetch op, in block-id order (empty for a pristine
    /// binary).
    #[inline]
    pub fn prefetch_ops(&self) -> &[PrefetchOp] {
        &self.ops
    }

    /// Installs the binary's whole op table (rewriter only), replacing any
    /// previous one: each `(site, op)` pair runs at the start of `site`, and
    /// one site's ops keep their order in `ops`. Block sizes change, so
    /// re-run [`assign_layout`](crate::layout::assign_layout) afterwards.
    pub fn set_prefetch_ops(&mut self, mut ops: Vec<(BlockId, PrefetchOp)>) {
        if ops.is_empty() {
            self.op_start = Vec::new();
            self.ops = Vec::new();
            return;
        }
        ops.sort_by_key(|&(site, _)| site);
        self.op_start.clear();
        self.op_start.resize(self.num_blocks() + 1, 0);
        for &(site, _) in &ops {
            self.op_start[site.index() + 1] += 1;
        }
        for i in 1..self.op_start.len() {
            self.op_start[i] += self.op_start[i - 1];
        }
        self.ops.clear();
        self.ops.reserve_exact(ops.len());
        self.ops.extend(ops.into_iter().map(|(_, op)| op));
    }

    /// The sorted coalesce table (block ids ordered by branch address).
    #[inline]
    pub fn coalesce_table(&self) -> &[BlockId] {
        &self.coalesce_table
    }

    /// Installs the coalesce table (rewriter only). Entries must be sorted
    /// by terminator branch address in the final layout.
    pub fn set_coalesce_table(&mut self, table: Vec<BlockId>) {
        self.coalesce_table = table;
    }

    /// Address of coalesce-table entry `index` in the text segment.
    #[inline]
    pub fn coalesce_entry_addr(&self, index: u32) -> Addr {
        self.coalesce_table_addr
            + u64::from(index) * u64::from(twig_types::COALESCE_ENTRY_BYTES)
    }

    /// Sets the coalesce-table base address (layout pass only).
    pub(crate) fn set_coalesce_table_addr(&mut self, addr: Addr) {
        self.coalesce_table_addr = addr;
    }

    /// Resolves the dynamic [`BranchRecord`] for a block execution.
    ///
    /// `taken` is the resolved direction (always `true` for unconditional
    /// branches); `target_block` must be provided for taken branches and is
    /// validated against the CFG for direct branches in debug builds.
    ///
    /// Returns `None` for fall-through blocks (no branch executed).
    pub fn resolve_branch(
        &self,
        id: BlockId,
        taken: bool,
        target_block: Option<BlockId>,
    ) -> Option<BranchRecord> {
        let block = self.block(id);
        let kind = block.branch_kind()?;
        let outcome = if taken {
            let tb = target_block.expect("taken branch must carry a target block");
            let target_addr = match &block.term {
                // Calls and indirect calls land on the callee's entry block.
                Terminator::Call { callee, .. } => {
                    debug_assert_eq!(*callee, self.block(tb).func);
                    self.addrs[self.function(*callee).entry.index()]
                }
                Terminator::IndirectCall { .. } => self.addrs[tb.index()],
                _ => self.addrs[tb.index()],
            };
            BranchOutcome::Taken(target_addr)
        } else {
            debug_assert_eq!(kind, BranchKind::Conditional);
            BranchOutcome::NotTaken
        };
        Some(BranchRecord {
            pc: block.branch_pc(),
            kind,
            outcome,
            fallthrough: block.end_addr(),
        })
    }

    /// The statically known taken-target *address* of a direct branch
    /// terminator, if any. Used by BTB prefetching, which can only encode
    /// statically known targets.
    pub fn direct_branch_target_addr(&self, id: BlockId) -> Option<Addr> {
        // Only addresses are read: skip the view's op-table lookups.
        let target = match &self.cfg.blocks[id.index()].term {
            Terminator::Conditional { taken, .. } => *taken,
            Terminator::Jump { target } => *target,
            Terminator::Call { callee, .. } => self.function(*callee).entry,
            _ => return None,
        };
        Some(self.addrs[target.index()])
    }

    /// Total text-segment size in bytes (blocks plus coalesce table),
    /// assuming the current layout is packed.
    pub fn text_bytes(&self) -> u64 {
        let body: u64 = self.cfg.blocks.iter().map(|b| u64::from(b.body_bytes)).sum();
        let ops: u64 = self.ops.iter().map(|op| u64::from(op.encoded_bytes())).sum();
        body + ops + self.coalesce_table.len() as u64 * u64::from(twig_types::COALESCE_ENTRY_BYTES)
    }
}

/// Cache line → the branches predecode finds in it, for predecode-style
/// prefetchers (Confluence, Shotgun) that extract the branches of every
/// fetched or prefetched I-cache line.
///
/// One pass over the blocks buckets every branch block by the line of its
/// branch instruction, so a query reads one slice of block ids instead of
/// binary-searching every block address and scanning the blocks that
/// overlap the line. Branch targets are read at query time: most lines are
/// never predecoded, and resolving every target up front costs a random
/// read per branch of the binary. An index describes the layout of the one
/// binary it was built from; a rewrite needs its own. It is built on a
/// prefetcher's first predecode, so programs that are never predecoded
/// never pay for one. Lines are stored densely over runs of covered lines;
/// the distant library region starts a second run instead of a gap-sized
/// array.
///
/// # Examples
///
/// ```
/// use twig_workload::{LineIndex, ProgramGenerator, WorkloadSpec};
///
/// let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
/// let index = LineIndex::new(&program);
/// let (_, block) = program.blocks().find(|(_, b)| b.branch_kind().is_some()).unwrap();
/// let pc = block.branch_pc();
/// assert!(index.branches_in_line(&program, pc.line()).any(|b| b.pc == pc));
/// ```
#[derive(Clone, Debug)]
pub struct LineIndex {
    /// Runs of covered lines, ascending: `(first line, last line, offset
    /// of the first line's entry in `offsets`)`.
    runs: Vec<(u64, u64, usize)>,
    /// Per line of each run, plus one past the last: where the line's
    /// blocks start in `blocks` (they end where the next line's start).
    offsets: Vec<u32>,
    /// Every block that ends in a branch, in address order.
    blocks: Vec<BlockId>,
}

/// A branch as predecode extracts it from a line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineBranch {
    /// The branch kind.
    pub kind: twig_types::BranchKind,
    /// Address of the branch instruction.
    pub pc: Addr,
    /// Statically known target (direct branches only).
    pub target: Option<Addr>,
}

/// Uncovered lines between two covered runs that still join them into one
/// run (64 KiB of text): function padding stays inside a run, and only the
/// far library region starts a new one.
const MAX_RUN_GAP_LINES: u64 = 1024;

impl LineIndex {
    /// Indexes `program`'s layout.
    ///
    /// Relies on the layout invariant that block addresses are globally
    /// non-decreasing in block-id order (functions are placed in id order
    /// and blocks are contiguous within functions), so branch addresses
    /// are too.
    pub fn new(program: &Program) -> Self {
        let addrs = &program.addrs;
        debug_assert!(addrs.is_sorted(), "block addresses must follow block ids");
        // Functions are contiguous block ranges, so their extents give
        // the covered lines without visiting every block.
        let mut runs: Vec<(u64, u64, usize)> = Vec::new();
        let mut lines = 0;
        for function in program.functions().filter(|f| f.first_block < f.last_block) {
            let first = addrs[function.first_block as usize].line().line_number();
            let last_block = program.block(BlockId::new(function.last_block - 1));
            let last_byte = last_block.end_addr().raw().saturating_sub(1).max(last_block.addr.raw());
            let last = Addr::new(last_byte).line().line_number();
            match runs.last_mut() {
                Some((_, run_last, _)) if first <= run_last.saturating_add(MAX_RUN_GAP_LINES) => {
                    lines += (last.max(*run_last) - *run_last) as usize;
                    *run_last = (*run_last).max(last);
                }
                _ => {
                    runs.push((first, last, lines));
                    lines += (last - first + 1) as usize;
                }
            }
        }
        let mut index = LineIndex {
            runs,
            offsets: Vec::with_capacity(lines + 1),
            blocks: Vec::with_capacity(addrs.len()),
        };
        for (id, block) in program.blocks() {
            if block.branch_kind().is_none() {
                continue;
            }
            let slot = index.slot(block.branch_pc().line()).expect("every block lies in a run");
            while index.offsets.len() <= slot {
                index.offsets.push(index.blocks.len() as u32);
            }
            index.blocks.push(id);
        }
        index.offsets.resize(lines + 1, index.blocks.len() as u32);
        index
    }

    /// The position of `line` in `offsets`, if a run covers it.
    #[inline]
    fn slot(&self, line: twig_types::CacheLineAddr) -> Option<usize> {
        let n = line.line_number();
        let &(first, _, offset) = self
            .runs
            .iter()
            .find(|&&(_, last, _)| n <= last)
            .filter(|&&(first, _, _)| n >= first)?;
        Some(offset + (n - first) as usize)
    }

    /// The branches whose instruction lies in `line`, in address order.
    /// `program` must be the binary the index was built from.
    pub fn branches_in_line<'a>(
        &'a self,
        program: &'a Program,
        line: twig_types::CacheLineAddr,
    ) -> impl Iterator<Item = LineBranch> + 'a {
        // Lines outside every run hold no block.
        let blocks = match self.slot(line) {
            Some(k) => &self.blocks[self.offsets[k] as usize..self.offsets[k + 1] as usize],
            None => &[],
        };
        blocks.iter().map(move |&id| {
            let block = program.block(id);
            LineBranch {
                kind: block.branch_kind().expect("indexed blocks end in a branch"),
                pc: block.branch_pc(),
                target: program.direct_branch_target_addr(id),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_program() -> Program {
        let blocks = vec![
            BasicBlock {
                func: FuncId::new(0),
                num_instrs: 4,
                body_bytes: 16,
                term_bytes: 4,
                term: Terminator::Conditional {
                    taken: BlockId::new(0),
                    not_taken: BlockId::new(1),
                    taken_prob: 0.5,
                },
            },
            BasicBlock {
                func: FuncId::new(0),
                num_instrs: 2,
                body_bytes: 8,
                term_bytes: 2,
                term: Terminator::Return,
            },
        ];
        let functions = vec![Function {
            id: FuncId::new(0),
            entry: BlockId::new(0),
            first_block: 0,
            last_block: 2,
        }];
        let mut p = Program::from_parts(functions, blocks, TargetTables::default(), FuncId::new(0));
        p.set_addr(BlockId::new(0), Addr::new(0x1000));
        p.set_addr(BlockId::new(1), Addr::new(0x1010));
        p
    }

    #[test]
    fn branch_pc_is_last_instruction() {
        let p = two_block_program();
        let b = p.block(BlockId::new(0));
        assert_eq!(b.branch_pc(), Addr::new(0x100c));
        assert_eq!(b.end_addr(), Addr::new(0x1010));
    }

    #[test]
    fn resolve_taken_conditional() {
        let p = two_block_program();
        let rec = p
            .resolve_branch(BlockId::new(0), true, Some(BlockId::new(0)))
            .unwrap();
        assert_eq!(rec.kind, BranchKind::Conditional);
        assert_eq!(rec.outcome, BranchOutcome::Taken(Addr::new(0x1000)));
        assert_eq!(rec.fallthrough, Addr::new(0x1010));
    }

    #[test]
    fn resolve_not_taken_conditional() {
        let p = two_block_program();
        let rec = p.resolve_branch(BlockId::new(0), false, None).unwrap();
        assert_eq!(rec.outcome, BranchOutcome::NotTaken);
        assert_eq!(rec.next_fetch(), Addr::new(0x1010));
    }

    #[test]
    fn prefetch_ops_grow_block() {
        let mut p = two_block_program();
        let before = p.block(BlockId::new(0)).size_bytes();
        let op = PrefetchOp::BrPrefetch {
            branch_block: BlockId::new(1),
        };
        p.set_prefetch_ops(vec![(BlockId::new(0), op)]);
        let b = p.block(BlockId::new(0));
        assert_eq!(b.size_bytes(), before + twig_types::BRPREFETCH_BYTES);
        assert_eq!(b.total_instrs(), 5);
        assert!(p.block(BlockId::new(1)).prefetch_ops.is_empty());
        assert_eq!(p.text_bytes(), 24 + u64::from(twig_types::BRPREFETCH_BYTES));
    }

    #[test]
    fn op_table_groups_by_site_in_order() {
        let mut p = two_block_program();
        let first = PrefetchOp::BrPrefetch {
            branch_block: BlockId::new(0),
        };
        let second = PrefetchOp::BrCoalesce {
            base_index: 0,
            bitmask: 1,
        };
        let other = PrefetchOp::BrPrefetch {
            branch_block: BlockId::new(1),
        };
        p.set_prefetch_ops(vec![
            (BlockId::new(1), first),
            (BlockId::new(0), other),
            (BlockId::new(1), second),
        ]);
        assert_eq!(p.block(BlockId::new(0)).prefetch_ops, &[other]);
        assert_eq!(p.block(BlockId::new(1)).prefetch_ops, &[first, second]);
        assert_eq!(p.prefetch_ops().len(), 3);
        // An empty table restores the op-free binary exactly.
        let pristine = two_block_program();
        p.set_prefetch_ops(Vec::new());
        assert_eq!(p, pristine);
    }

    /// Blocks hold no heap data, and a trace event packs into 12 bytes.
    #[test]
    fn blocks_and_events_stay_small() {
        assert!(std::mem::size_of::<BasicBlock>() <= 32);
        assert_eq!(std::mem::size_of::<Terminator>(), 16);
        assert_eq!(std::mem::size_of::<crate::BlockEvent>(), 12);
    }

    #[test]
    fn clones_share_the_cfg() {
        let p = two_block_program();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.cfg, &q.cfg));
    }

    /// `LineIndex::branches_in_line` against a scan of every block, on a
    /// pristine binary and on one grown by injected ops, including lines
    /// outside the text, in the gap before the library region, and past
    /// the end.
    #[test]
    fn line_queries_match_a_full_scan() {
        use crate::layout::assign_layout;
        use crate::{ProgramGenerator, WorkloadSpec};

        let generator = ProgramGenerator::new(WorkloadSpec::tiny_test());
        let pristine = generator.generate();
        let mut rewritten = pristine.clone();
        let ops = (0..rewritten.num_blocks() as u32)
            .step_by(3)
            .map(|i| {
                let op = PrefetchOp::BrPrefetch {
                    branch_block: BlockId::new(i / 2),
                };
                (BlockId::new(i), op)
            })
            .collect();
        rewritten.set_prefetch_ops(ops);
        assign_layout(&mut rewritten, &generator.layout_options());
        assert_ne!(rewritten.block(BlockId::new(5)).addr, pristine.block(BlockId::new(5)).addr);

        for p in [&pristine, &rewritten] {
            let index = LineIndex::new(p);
            assert!(index.runs.len() >= 2, "the library region starts its own run");
            let mut lines: std::collections::BTreeSet<_> = p
                .blocks()
                .flat_map(|(_, b)| {
                    let first = b.addr.line();
                    let before = twig_types::CacheLineAddr::from_line_number(first.line_number() - 1);
                    [before, first, b.branch_pc().line(), b.end_addr().line()]
                })
                .collect();
            let gap = (index.runs[0].1 + index.runs[1].0) / 2;
            let past = index.runs.last().unwrap().1 + 1;
            for n in [0, index.runs[0].1 + 1, gap, index.runs[1].0 - 1, past, u64::MAX / 64 - 1] {
                lines.insert(twig_types::CacheLineAddr::from_line_number(n));
            }
            for &line in &lines {
                let branches: Vec<_> = p
                    .blocks()
                    .filter(|(_, b)| b.branch_kind().is_some() && b.branch_pc().line() == line)
                    .map(|(id, b)| LineBranch {
                        kind: b.branch_kind().unwrap(),
                        pc: b.branch_pc(),
                        target: p.direct_branch_target_addr(id),
                    })
                    .collect();
                assert_eq!(index.branches_in_line(p, line).collect::<Vec<_>>(), branches, "{line:?}");
            }
        }
    }

    #[test]
    fn text_bytes_counts_table() {
        let mut p = two_block_program();
        assert_eq!(p.text_bytes(), 24);
        p.set_coalesce_table(vec![BlockId::new(0)]);
        assert_eq!(
            p.text_bytes(),
            24 + u64::from(twig_types::COALESCE_ENTRY_BYTES)
        );
    }

    #[test]
    fn direct_target_addrs() {
        let p = two_block_program();
        assert_eq!(
            p.direct_branch_target_addr(BlockId::new(0)),
            Some(Addr::new(0x1000))
        );
        assert_eq!(p.direct_branch_target_addr(BlockId::new(1)), None);
    }
}
