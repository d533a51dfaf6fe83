//! Stable identifiers for program structure.
//!
//! Addresses change whenever Twig's rewriter injects prefetch instructions
//! and re-lays-out the binary; [`BlockId`] and [`FuncId`] are the *layout
//! independent* names used to carry profile information from the profiled
//! binary to the rewritten one (the role BOLT-style tooling plays for real
//! binaries).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

use twig_serde::{Deserialize, Serialize, Value};

/// Stable identifier of a basic block within a [`Program`].
///
/// Block ids are dense (`0..program.num_blocks()`) and survive binary
/// re-layout, so a profile collected on the original layout can be applied
/// to the rewritten binary.
///
/// Stored as `raw + 1` in a [`NonZeroU32`], so `Option<BlockId>` is four
/// bytes and a trace event twelve. Every trait acts on the raw value:
/// ordering, hashing (`raw` as a `u32`), formatting and serde see exactly
/// what a plain `u32` would. The one id this leaves out is `u32::MAX`.
///
/// [`Program`]: https://docs.rs/twig-workload
///
/// # Examples
///
/// ```
/// use twig_types::BlockId;
///
/// let b = BlockId::new(42);
/// assert_eq!(b.index(), 42);
/// assert_eq!(b.to_string(), "bb42");
/// assert_eq!(std::mem::size_of::<Option<BlockId>>(), 4);
/// assert_eq!(BlockId::try_new(u32::MAX), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockId(NonZeroU32);

impl BlockId {
    /// Creates a block id from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `u32::MAX`; decoders use [`BlockId::try_new`].
    #[inline]
    pub const fn new(index: u32) -> Self {
        match Self::try_new(index) {
            Some(id) => id,
            None => panic!("block id u32::MAX is out of range"),
        }
    }

    /// Creates a block id, or `None` for the one unrepresentable index,
    /// `u32::MAX`.
    #[inline]
    pub const fn try_new(index: u32) -> Option<Self> {
        match NonZeroU32::new(index.wrapping_add(1)) {
            Some(v) => Some(BlockId(v)),
            None => None,
        }
    }

    /// The dense index (usable for `Vec` indexing).
    #[inline]
    pub const fn index(self) -> usize {
        self.raw() as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0.get() - 1
    }
}

impl Default for BlockId {
    fn default() -> Self {
        BlockId::new(0)
    }
}

impl Hash for BlockId {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw().hash(state);
    }
}

impl Serialize for BlockId {
    fn to_value(&self) -> Value {
        self.raw().to_value()
    }
}

impl Deserialize for BlockId {
    fn from_value(value: &Value) -> Result<Self, String> {
        let raw = u32::from_value(value)?;
        BlockId::try_new(raw).ok_or_else(|| format!("block id {raw} out of range"))
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId({})", self.raw())
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.raw())
    }
}

impl From<u32> for BlockId {
    fn from(raw: u32) -> Self {
        BlockId::new(raw)
    }
}

/// Stable identifier of a function within a [`Program`].
///
/// [`Program`]: https://docs.rs/twig-workload
///
/// # Examples
///
/// ```
/// use twig_types::FuncId;
///
/// let f = FuncId::new(7);
/// assert_eq!(f.index(), 7);
/// assert_eq!(f.to_string(), "fn7");
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FuncId(u32);

impl FuncId {
    /// Creates a function id from its dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        FuncId(index)
    }

    /// The dense index (usable for `Vec` indexing).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FuncId({})", self.0)
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

impl From<u32> for FuncId {
    fn from(raw: u32) -> Self {
        FuncId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        assert_eq!(BlockId::from(3u32).raw(), 3);
        assert_eq!(FuncId::from(9u32).raw(), 9);
        assert_eq!(BlockId::new(3).index(), 3);
        assert_eq!(FuncId::new(9).index(), 9);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(BlockId::new(1) < BlockId::new(2));
        assert!(FuncId::new(1) < FuncId::new(2));
    }

    #[test]
    fn block_id_acts_on_the_raw_value() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        for raw in [0, 1, 7, u32::MAX - 1] {
            let id = BlockId::new(raw);
            assert_eq!(id.raw(), raw);
            assert_eq!(hasher.hash_one(id), hasher.hash_one(raw));
            assert_eq!(BlockId::from_value(&id.to_value()).unwrap(), id);
            assert_eq!(id.to_value(), raw.to_value());
        }
        assert_eq!(BlockId::default(), BlockId::new(0));
        assert_eq!(BlockId::try_new(u32::MAX), None);
        assert!(BlockId::from_value(&u32::MAX.to_value()).is_err());
        assert_eq!(std::mem::size_of::<Option<BlockId>>(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_id_rejects_u32_max() {
        let _ = BlockId::new(u32::MAX);
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", BlockId::new(5)), "BlockId(5)");
        assert_eq!(format!("{:?}", FuncId::new(5)), "FuncId(5)");
    }
}
