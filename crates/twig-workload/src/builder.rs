//! Hand-construction of exact programs for tests and micro-experiments.
//!
//! The [`ProgramGenerator`](crate::ProgramGenerator) builds statistically
//! realistic programs; this builder constructs *exact* control-flow graphs
//! — a loop of N blocks, a call chain of depth D — so tests can assert
//! precise simulator behaviour (resteer latencies, region formation, BTB
//! set conflicts) against known structures.

use twig_types::{BlockId, FuncId};

use crate::layout::{assign_layout, LayoutOptions};
use crate::program::{BasicBlock, Function, Program, TargetTables, Terminator};

/// Builder for one function's blocks.
#[derive(Debug)]
struct FunctionDraft {
    blocks: Vec<BlockDraft>,
}

#[derive(Debug)]
struct BlockDraft {
    num_instrs: u32,
    instr_bytes: u32,
    term: Terminator,
}

/// Incremental program construction with explicit control flow.
///
/// Block references use `(function index, block index)` pairs resolved to
/// global [`BlockId`]s at [`build`](Self::build) time, so forward
/// references are legal.
///
/// # Examples
///
/// A two-function program — an entry loop calling a leaf:
///
/// ```
/// use twig_workload::{ProgramBuilder, Terminator};
///
/// let mut b = ProgramBuilder::new();
/// let f0 = b.function();
/// let f1 = b.function();
/// // f0: bb0 calls f1, bb1 loops back to bb0.
/// b.block(f0, 4, Terminator::Call { callee: b.func_id(f1), return_to: b.block_ref(f0, 1) });
/// b.block(f0, 4, Terminator::Jump { target: b.block_ref(f0, 0) });
/// // f1: straight-line then return.
/// b.block(f1, 6, Terminator::FallThrough { next: b.block_ref(f1, 1) });
/// b.block(f1, 2, Terminator::Return);
/// let program = b.build(f0);
/// assert_eq!(program.num_functions(), 2);
/// assert_eq!(program.num_blocks(), 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<FunctionDraft>,
    targets: TargetTables,
    instr_bytes: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder (4-byte instructions by default).
    pub fn new() -> Self {
        ProgramBuilder {
            functions: Vec::new(),
            targets: TargetTables::default(),
            instr_bytes: 4,
        }
    }

    /// An indirect-jump terminator over weighted `(target, weight)` pairs,
    /// recorded in the program's target table.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn indirect_jump(&mut self, targets: &[(BlockId, f32)]) -> Terminator {
        self.targets
            .indirect_jump(targets.iter().copied())
            .expect("an indirect jump needs at least one target")
    }

    /// An indirect-call terminator over weighted `(callee, weight)` pairs,
    /// recorded in the program's target table.
    ///
    /// # Panics
    ///
    /// Panics if `callees` is empty.
    pub fn indirect_call(&mut self, callees: &[(FuncId, f32)], return_to: BlockId) -> Terminator {
        self.targets
            .indirect_call(callees.iter().copied(), return_to)
            .expect("an indirect call needs at least one callee")
    }

    /// Sets the instruction size used for subsequently added blocks.
    pub fn instr_bytes(&mut self, bytes: u32) -> &mut Self {
        assert!(bytes > 0);
        self.instr_bytes = bytes;
        self
    }

    /// Declares a new (initially empty) function, returning its index.
    pub fn function(&mut self) -> usize {
        self.functions.push(FunctionDraft { blocks: Vec::new() });
        self.functions.len() - 1
    }

    /// The [`FuncId`] a function index will receive.
    pub fn func_id(&self, func: usize) -> FuncId {
        FuncId::new(func as u32)
    }

    /// The global [`BlockId`] that block `idx` of function `func` will
    /// receive. Valid for forward references (the block need not exist
    /// yet); validated at build time.
    pub fn block_ref(&self, func: usize, idx: usize) -> BlockId {
        let before: usize = self.functions[..func].iter().map(|f| f.blocks.len()).sum();
        // Blocks of earlier functions are already final; within `func`,
        // indices are stable because blocks are only appended.
        let _ = &self.functions[func];
        BlockId::new((before + idx) as u32)
    }

    /// Appends a block with `num_instrs` instructions (terminator included)
    /// to `func`, returning its global id.
    ///
    /// # Panics
    ///
    /// Panics if `num_instrs` is zero or blocks were already added to a
    /// *later* function (which would shift this block's id).
    pub fn block(&mut self, func: usize, num_instrs: u32, term: Terminator) -> BlockId {
        assert!(num_instrs > 0, "blocks need at least one instruction");
        assert!(
            self.functions[func + 1..].iter().all(|f| f.blocks.is_empty()),
            "add blocks in function order (later functions already have blocks)"
        );
        let id = self.block_ref(func, self.functions[func].blocks.len());
        self.functions[func].blocks.push(BlockDraft {
            num_instrs,
            instr_bytes: self.instr_bytes,
            term,
        });
        id
    }

    /// Finalizes the program with `entry` as its dispatcher function and
    /// assigns the default layout.
    ///
    /// # Panics
    ///
    /// Panics if any function is empty or a block reference is out of
    /// range.
    pub fn build(self, entry: usize) -> Program {
        self.build_with_layout(entry, &LayoutOptions::default())
    }

    /// [`build`](Self::build) with explicit layout options.
    ///
    /// # Panics
    ///
    /// See [`build`](Self::build).
    pub fn build_with_layout(self, entry: usize, layout: &LayoutOptions) -> Program {
        assert!(
            self.functions.iter().all(|f| !f.blocks.is_empty()),
            "every declared function needs at least one block"
        );
        let mut functions = Vec::with_capacity(self.functions.len());
        let mut blocks = Vec::new();
        for (fi, draft) in self.functions.into_iter().enumerate() {
            let first_block = blocks.len() as u32;
            for b in draft.blocks {
                let term_bytes = match &b.term {
                    Terminator::FallThrough { .. } => 0,
                    Terminator::Conditional { .. } => 4,
                    Terminator::Jump { .. } => 5,
                    Terminator::Call { .. } => 5,
                    Terminator::IndirectJump { .. } => 3,
                    Terminator::IndirectCall { .. } => 3,
                    Terminator::Return => 1,
                };
                blocks.push(BasicBlock {
                    func: FuncId::new(fi as u32),
                    num_instrs: b.num_instrs,
                    body_bytes: (b.num_instrs - 1) * b.instr_bytes + term_bytes.max(1),
                    term_bytes,
                    term: b.term,
                });
            }
            let last_block = blocks.len() as u32;
            functions.push(Function {
                id: FuncId::new(fi as u32),
                entry: BlockId::new(first_block),
                first_block,
                last_block,
            });
        }
        // Validate references.
        let num_blocks = blocks.len() as u32;
        let num_funcs = functions.len() as u32;
        for b in &blocks {
            let check_block = |id: BlockId| {
                assert!(id.raw() < num_blocks, "dangling block reference {id}");
            };
            let check_func = |id: FuncId| {
                assert!(id.raw() < num_funcs, "dangling function reference {id}");
            };
            match &b.term {
                Terminator::FallThrough { next } => check_block(*next),
                Terminator::Conditional {
                    taken, not_taken, ..
                } => {
                    check_block(*taken);
                    check_block(*not_taken);
                }
                Terminator::Jump { target } => check_block(*target),
                Terminator::Call { callee, return_to } => {
                    check_func(*callee);
                    check_block(*return_to);
                }
                Terminator::IndirectJump { targets } => {
                    for (t, _) in self.targets.jump_targets(*targets) {
                        check_block(*t);
                    }
                }
                Terminator::IndirectCall { callees, return_to } => {
                    for (c, _) in self.targets.call_targets(*callees) {
                        check_func(*c);
                    }
                    check_block(*return_to);
                }
                Terminator::Return => {}
            }
        }
        let mut program =
            Program::from_parts(functions, blocks, self.targets, FuncId::new(entry as u32));
        assign_layout(&mut program, layout);
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputConfig, Walker};

    /// A dispatcher that calls a leaf and loops forever.
    fn loop_calling_leaf() -> Program {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        let f1 = b.function();
        b.block(
            f0,
            4,
            Terminator::Call {
                callee: b.func_id(f1),
                return_to: b.block_ref(f0, 1),
            },
        );
        b.block(
            f0,
            4,
            Terminator::Jump {
                target: b.block_ref(f0, 0),
            },
        );
        b.block(
            f1,
            6,
            Terminator::FallThrough {
                next: b.block_ref(f1, 1),
            },
        );
        b.block(f1, 2, Terminator::Return);
        b.build(f0)
    }

    #[test]
    fn ids_are_stable_and_layout_contiguous() {
        let p = loop_calling_leaf();
        assert_eq!(p.num_blocks(), 4);
        let b0 = p.block(BlockId::new(0));
        let b1 = p.block(BlockId::new(1));
        assert_eq!(b0.end_addr(), b1.addr);
        assert_eq!(p.function(FuncId::new(1)).entry, BlockId::new(2));
    }

    #[test]
    fn walk_is_the_expected_cycle() {
        let p = loop_calling_leaf();
        let seq: Vec<u32> = Walker::new(&p, InputConfig::numbered(0))
            .take(8)
            .map(|e| e.block.raw())
            .collect();
        // call -> leaf bb2 -> leaf bb3 (ret) -> bb1 (jump) -> repeat
        assert_eq!(seq, vec![0, 2, 3, 1, 0, 2, 3, 1]);
    }

    #[test]
    fn conditional_probabilities_respected() {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        // bb0: never-taken conditional to bb0 (self), falls to bb1;
        // bb1 jumps back.
        b.block(
            f0,
            3,
            Terminator::Conditional {
                taken: b.block_ref(f0, 0),
                not_taken: b.block_ref(f0, 1),
                taken_prob: 0.0,
            },
        );
        b.block(
            f0,
            3,
            Terminator::Jump {
                target: b.block_ref(f0, 0),
            },
        );
        let p = b.build(f0);
        // With zero skew the branch is never taken.
        let input = InputConfig {
            cond_skew: 0.0,
            weight_skew: 0.0,
            ..InputConfig::numbered(0)
        };
        for ev in Walker::new(&p, input).take(100) {
            if ev.block == BlockId::new(0) {
                assert!(!ev.taken);
            }
        }
    }

    /// Indirect terminators resolve through the program's target tables:
    /// the walk only ever reaches the listed targets and callees.
    #[test]
    fn indirect_targets_resolve_through_the_tables() {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        let f1 = b.function();
        let f2 = b.function();
        let (t1, t2) = (b.block_ref(f0, 1), b.block_ref(f0, 2));
        let jump = b.indirect_jump(&[(t1, 1.0), (t2, 3.0)]);
        b.block(f0, 2, jump);
        let call = b.indirect_call(&[(b.func_id(f1), 1.0), (b.func_id(f2), 1.0)], t2);
        b.block(f0, 2, call);
        let back = Terminator::Jump {
            target: b.block_ref(f0, 0),
        };
        b.block(f0, 2, back);
        b.block(f1, 1, Terminator::Return);
        b.block(f2, 1, Terminator::Return);
        let p = b.build(f0);
        let Terminator::IndirectJump { targets } = p.block(BlockId::new(0)).term else {
            panic!("bb0 is an indirect jump");
        };
        assert_eq!(p.indirect_targets(targets), &[(t1, 1.0), (t2, 3.0)]);
        let Terminator::IndirectCall { callees, .. } = p.block(t1).term else {
            panic!("bb1 is an indirect call");
        };
        assert_eq!(p.indirect_callees(callees).len(), 2);
        let (e1, e2) = (p.function(FuncId::new(1)).entry, p.function(FuncId::new(2)).entry);
        for ev in Walker::new(&p, InputConfig::numbered(0)).take(200) {
            match ev.block.raw() {
                0 => assert!(ev.target == Some(t1) || ev.target == Some(t2)),
                1 => assert!(ev.target == Some(e1) || ev.target == Some(e2)),
                _ => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "function order")]
    fn out_of_order_blocks_panic() {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        let f1 = b.function();
        b.block(f1, 1, Terminator::Return);
        b.block(f0, 1, Terminator::Return); // f1 already populated
    }

    #[test]
    #[should_panic(expected = "dangling block reference")]
    fn dangling_reference_panics() {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        b.block(
            f0,
            2,
            Terminator::Jump {
                target: BlockId::new(99),
            },
        );
        let _ = b.build(f0);
    }

    #[test]
    fn custom_instruction_sizes_shape_the_layout() {
        let mut b = ProgramBuilder::new();
        let f0 = b.function();
        b.instr_bytes(16);
        let big = b.block(
            f0,
            4,
            Terminator::FallThrough {
                next: b.block_ref(f0, 1),
            },
        );
        b.instr_bytes(2);
        b.block(f0, 2, Terminator::Return);
        let p = b.build(f0);
        // 3 * 16 body + 1-byte placeholder terminator = 49 bytes.
        assert_eq!(p.block(big).size_bytes(), 49);
    }
}
