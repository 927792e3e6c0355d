//! Interned identifier names, and the ids that stand for procedure
//! names where a machine runs.
//!
//! C-- names denote local variables, global registers, procedures,
//! continuations, labels, and data blocks. [`Name`] is a cheap-to-clone,
//! hashable wrapper around a shared string. A running machine names a
//! procedure by its [`ProcId`] instead, plain data that costs nothing
//! to copy, and turns it back into text through [`ProcNames`] only
//! where text is made.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An identifier name.
///
/// `Name` is reference-counted, so cloning is O(1); equality, ordering and
/// hashing are on the underlying string.
///
/// # Example
///
/// ```
/// use cmm_ir::Name;
/// let n = Name::from("sp1");
/// assert_eq!(n.as_str(), "sp1");
/// assert_eq!(n, Name::from("sp1"));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// Creates a name from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Name(Arc::from(s.as_ref()))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the reserved fallible-primitive namespace (`%%divu`, ...).
    ///
    /// Per §4.3 of the paper, each primitive that can fail has a
    /// fast-but-dangerous variant (`%divu`) and a slow-but-solid variant
    /// (`%%divu`) whose failure is mapped onto a `yield`.
    pub fn is_checked_primitive(&self) -> bool {
        self.0.starts_with("%%")
    }

    /// True for the unchecked-primitive namespace (`%divu`, but not `%%divu`).
    pub fn is_unchecked_primitive(&self) -> bool {
        self.0.starts_with('%') && !self.0.starts_with("%%")
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({:?})", &*self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Self {
        n.clone()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A procedure's position in the program it belongs to (`cmm-cfg`'s
/// `Program` numbers its procedures in name order). Machine values,
/// frames and trace events carry it instead of the procedure's
/// [`Name`], so copying one touches no shared reference count.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The id of no procedure: what the target machine reports for a
    /// pc outside every procedure's code. It renders as `?`.
    pub const NONE: ProcId = ProcId(u32::MAX);

    /// The id as `usize`, to index a program's tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A program's table from procedure ids back to names, read where
/// text is made: event renderings, profiles, post-mortems and fault
/// messages.
pub trait ProcNames {
    /// The name of procedure `id`, or `"?"` if the program has no such
    /// procedure.
    fn proc_name(&self, id: ProcId) -> &str;
}

impl ProcNames for [Name] {
    fn proc_name(&self, id: ProcId) -> &str {
        self.get(id.index()).map_or("?", Name::as_str)
    }
}

impl ProcNames for Vec<Name> {
    fn proc_name(&self, id: ProcId) -> &str {
        self[..].proc_name(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_equality_is_structural() {
        assert_eq!(Name::from("x"), Name::from("x"));
        assert_ne!(Name::from("x"), Name::from("y"));
    }

    #[test]
    fn name_clone_is_shallow() {
        let a = Name::from("long_procedure_name");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn name_hashes_like_str() {
        let mut set = HashSet::new();
        set.insert(Name::from("k0"));
        assert!(set.contains("k0"));
        assert!(!set.contains("k1"));
    }

    #[test]
    fn primitive_namespaces() {
        assert!(Name::from("%%divu").is_checked_primitive());
        assert!(!Name::from("%%divu").is_unchecked_primitive());
        assert!(Name::from("%divu").is_unchecked_primitive());
        assert!(!Name::from("%divu").is_checked_primitive());
        assert!(!Name::from("divu").is_unchecked_primitive());
    }

    #[test]
    fn display_and_debug() {
        let n = Name::from("loop");
        assert_eq!(n.to_string(), "loop");
        assert_eq!(format!("{n:?}"), "Name(\"loop\")");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let [a, b, k0, k1] = ["a", "b", "k0", "k1"].map(Name::from);
        assert!(a < b);
        assert!(k0 < k1);
    }
}
