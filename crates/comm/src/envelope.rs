//! Wire messages and matching selectors.

use crate::pool::PooledBuf;

/// Message tag. Tags below [`RESERVED_TAG_BASE`] are available to
/// applications; higher values are reserved for internal collectives.
pub type Tag = u32;

/// First tag value reserved for the runtime's own collectives.
pub const RESERVED_TAG_BASE: Tag = 0xF000_0000;

/// Wildcard source selector (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: SrcSel = SrcSel::Any;

/// Wildcard tag selector (`MPI_ANY_TAG`).
pub const ANY_TAG: TagSel = TagSel::Any;

/// Source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match a message from any rank.
    Any,
    /// Match only messages from this rank.
    Rank(usize),
}

impl SrcSel {
    /// True if a message from `src` satisfies this selector.
    #[inline]
    pub fn matches(self, src: usize) -> bool {
        match self {
            SrcSel::Any => true,
            SrcSel::Rank(r) => r == src,
        }
    }
}

impl From<usize> for SrcSel {
    fn from(r: usize) -> Self {
        SrcSel::Rank(r)
    }
}

/// Tag selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag.
    Any,
    /// Match only this tag.
    Is(Tag),
}

impl TagSel {
    /// True if a message with `tag` satisfies this selector.
    #[inline]
    pub fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Is(t) => t == tag,
        }
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Is(t)
    }
}

/// A message in flight: context id (communicator), source rank, tag, and the
/// gathered payload bytes.
#[derive(Debug)]
pub struct Envelope {
    /// Context (communicator) identifier; p2p and internal collectives use
    /// disjoint contexts so they can never intercept each other's traffic.
    pub ctx: u32,
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Payload. A [`PooledBuf`] so that the receiver's drop (after
    /// unpacking) recycles the bytes into its rank's wire pool; plain
    /// `Vec<u8>` payloads convert via `.into()` and are simply freed.
    pub data: PooledBuf,
}

impl Envelope {
    /// Build an envelope from any payload convertible to a [`PooledBuf`].
    pub fn new(ctx: u32, src: usize, tag: Tag, data: impl Into<PooledBuf>) -> Self {
        Envelope {
            ctx,
            src,
            tag,
            data: data.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_selector_matching() {
        assert!(SrcSel::Any.matches(0));
        assert!(SrcSel::Any.matches(41));
        assert!(SrcSel::Rank(3).matches(3));
        assert!(!SrcSel::Rank(3).matches(4));
        let s: SrcSel = 7usize.into();
        assert_eq!(s, SrcSel::Rank(7));
    }

    #[test]
    fn tag_selector_matching() {
        assert!(TagSel::Any.matches(0));
        assert!(TagSel::Is(9).matches(9));
        assert!(!TagSel::Is(9).matches(10));
        let t: TagSel = 5u32.into();
        assert_eq!(t, TagSel::Is(5));
    }

    #[test]
    fn reserved_tags_are_high() {
        let base = RESERVED_TAG_BASE;
        assert!(base > 1_000_000);
    }
}
