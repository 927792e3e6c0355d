//! Program identity digests.
//!
//! A [`Digest`] identifies *what would be compiled*: the raw source
//! text, the language and lowering strategy, the optimization
//! configuration, and the engine lowering family (the abstract
//! machines execute the CFG `Program`; the simulated target executes
//! `VmProgram` code compiled from it — same source, different artifact
//! chain). `cmm-pool`'s `SourceKey::digest` computes it. It is the one
//! program identity in the workspace: the compilation cache keys its
//! artifacts under it, and every snapshot carries the digest of the
//! program it was taken over ([`crate::Snapshot::digest`]).
//!
//! Hashing the **raw bytes** of the source is deliberate: a
//! whitespace-only edit produces a different digest and reuses
//! nothing. Normalizing (token-hashing) would buy a few extra cache
//! hits at the cost of a parser run on the *lookup* path and a key that
//! no longer certifies "these exact bytes were compiled"; an artifact
//! served for bytes that were never compiled is a miscompilation vector
//! the difftest suite could not see.
//!
//! The hash is FNV-1a/128 over length-prefixed parts, giving 128-bit
//! keys without pulling in a dependency. FNV is not collision-resistant
//! against adversaries; the digest names programs for a local build
//! service, not untrusted input, and 128 bits make accidental
//! collisions negligible.

use std::fmt;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit FNV-1a content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Digest(pub u128);

impl Digest {
    /// Hashes a sequence of byte-string parts. Each part is prefixed
    /// with its length so part boundaries are part of the hash:
    /// `of(&[b"ab", b"c"]) != of(&[b"a", b"bc"])`.
    pub fn of(parts: &[&[u8]]) -> Digest {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u128::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for part in parts {
            eat(&(part.len() as u64).to_le_bytes());
            eat(part);
        }
        Digest(h)
    }

    /// Lower-case hex form (32 digits), for reports and logs.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let a = Digest::of(&[b"source", b"config"]);
        let b = Digest::of(&[b"source", b"config"]);
        assert_eq!(a, b);
        assert_ne!(a, Digest::of(&[b"source", b"config2"]));
    }

    #[test]
    fn part_boundaries_matter() {
        assert_ne!(Digest::of(&[b"ab", b"c"]), Digest::of(&[b"a", b"bc"]));
        assert_ne!(Digest::of(&[b"ab"]), Digest::of(&[b"ab", b""]));
    }

    #[test]
    fn empty_input_is_the_offset_basis_after_length_prefix() {
        // Not a magic constant anyone relies on — just pins the hex
        // format to 32 lower-case digits.
        let d = Digest::of(&[]);
        assert_eq!(d.hex().len(), 32);
        assert_eq!(d.0, FNV_OFFSET);
    }
}
