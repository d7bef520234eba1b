//! The clause arena: every clause inline in one flat `Vec<u32>`.
//!
//! A clause is [`HEADER`] words followed by its literal codes
//! ([`Lit::code`]):
//!
//! | word | contents |
//! |------|----------|
//! | 0 | `len << 2 \| DELETED \| LEARNT` |
//! | 1 | LBD (0 for problem clauses) |
//! | 2 | activity, the bits of an `f32` (0.0 for problem clauses) |
//! | 3.. | `len` literal codes, the two watched literals first |
//!
//! A clause reference (`cref`) is the offset of the clause's first header
//! word, so propagation finds a clause's literals one load away from its
//! watcher. Deleting a clause only sets its flag; its words stay until
//! [`ClauseArena::compact`] slides the live clauses down over them, in
//! order, and returns a [`Relocation`] that maps each old reference to
//! its new one.

use crate::Lit;

/// Words before a clause's literals.
pub const HEADER: usize = 3;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;
/// Longest clause the size word can hold.
const MAX_LEN: usize = (1 << 30) - 1;

pub struct ClauseArena {
    words: Vec<u32>,
    /// Words of deleted clauses still in `words`.
    wasted: usize,
}

impl ClauseArena {
    pub fn new() -> Self {
        ClauseArena {
            words: Vec::new(),
            wasted: 0,
        }
    }

    /// Appends a clause and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if the arena would outgrow 32-bit references (`u32::MAX` is
    /// the solver's "no clause").
    pub fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        assert!(lits.len() <= MAX_LEN, "clause of {} literals", lits.len());
        let cref = self.words.len();
        assert!(
            cref + HEADER + lits.len() < u32::MAX as usize,
            "clause arena full"
        );
        self.words
            .extend([(lits.len() as u32) << 2 | u32::from(learnt), lbd, 0]);
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        cref as u32
    }

    /// Number of literals.
    pub fn len(&self, cref: u32) -> usize {
        (self.words[cref as usize] >> 2) as usize
    }

    pub fn is_learnt(&self, cref: u32) -> bool {
        self.words[cref as usize] & LEARNT != 0
    }

    pub fn is_deleted(&self, cref: u32) -> bool {
        self.words[cref as usize] & DELETED != 0
    }

    pub fn lbd(&self, cref: u32) -> u32 {
        self.words[cref as usize + 1]
    }

    pub fn activity(&self, cref: u32) -> f32 {
        f32::from_bits(self.words[cref as usize + 2])
    }

    pub fn set_activity(&mut self, cref: u32, activity: f32) {
        self.words[cref as usize + 2] = activity.to_bits();
    }

    /// The clause's literal codes.
    pub fn lits(&self, cref: u32) -> &[u32] {
        let start = cref as usize + HEADER;
        &self.words[start..start + self.len(cref)]
    }

    /// The clause's literal codes, for propagation to reorder: `None` if
    /// the clause is deleted.
    pub fn live_lits_mut(&mut self, cref: u32) -> Option<&mut [u32]> {
        let head = self.words[cref as usize];
        if head & DELETED != 0 {
            return None;
        }
        let start = cref as usize + HEADER;
        Some(&mut self.words[start..start + (head >> 2) as usize])
    }

    /// Marks the clause deleted; its words count as wasted until the next
    /// [`ClauseArena::compact`].
    pub fn delete(&mut self, cref: u32) {
        debug_assert!(!self.is_deleted(cref));
        self.words[cref as usize] |= DELETED;
        self.wasted += HEADER + self.len(cref);
    }

    /// Words held, deleted clauses included.
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// Words of deleted clauses not yet reclaimed.
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Slides every live clause down over the deleted ones, keeping their
    /// order, and releases the rest of the buffer. The returned map gives
    /// each old reference's new one.
    pub fn compact(&mut self) -> Relocation {
        let live = self.words.len() - self.wasted;
        let mut old = std::mem::replace(&mut self.words, Vec::with_capacity(live));
        let mut cref = 0;
        while cref < old.len() {
            let head = old[cref];
            let end = cref + HEADER + (head >> 2) as usize;
            if head & DELETED == 0 {
                let to = self.words.len() as u32;
                self.words.extend_from_slice(&old[cref..end]);
                // The old copy's LBD word forwards to the new reference.
                old[cref + 1] = to;
            }
            cref = end;
        }
        self.wasted = 0;
        Relocation { old }
    }

    /// Every clause reference in arena order, deleted clauses included.
    #[cfg(test)]
    pub fn crefs(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cref = 0;
        while cref < self.words.len() {
            out.push(cref as u32);
            cref += HEADER + self.len(cref as u32);
        }
        out
    }
}

/// The arena before a [`ClauseArena::compact`], each live clause's LBD
/// word overwritten by its new reference.
pub struct Relocation {
    old: Vec<u32>,
}

impl Relocation {
    /// The new reference of the clause at old reference `cref`, or `None`
    /// if that clause was deleted.
    pub fn get(&self, cref: u32) -> Option<u32> {
        let c = cref as usize;
        (self.old[c] & DELETED == 0).then(|| self.old[c + 1])
    }
}
