//! Machine values (§5.1).

use crate::state::NodeRef;
use cmm_ir::{ProcId, Width};
use std::fmt;

/// A value of the C-- abstract machine.
///
/// "To enable variables to denote procedures and continuations as well as
/// basic C-- values, we define a value as one of the following forms:
/// `Bits_n k` (the n-bit value k), `Code p` (a pointer to the node p),
/// `Cont (p, u)` (a continuation to the node p in the stack frame with
/// unique id u)."
///
/// A value is plain data: procedures are named by their [`ProcId`], so
/// copying, storing or dropping a value touches no shared name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// An n-bit value. Floats are carried as their IEEE-754 bit patterns.
    Bits(Width, u64),
    /// A pointer to the code of a procedure.
    Code(ProcId),
    /// A continuation: a node together with the unique id of the
    /// activation it belongs to.
    Cont(NodeRef, u64),
}

impl Value {
    /// A `bits32` value.
    pub fn b32(v: u32) -> Value {
        Value::Bits(Width::W32, u64::from(v))
    }

    /// A `bits64` value.
    pub fn b64(v: u64) -> Value {
        Value::Bits(Width::W64, v)
    }

    /// The bits of a `Bits` value, if it is one.
    pub fn bits(&self) -> Option<u64> {
        match self {
            Value::Bits(_, v) => Some(*v),
            _ => None,
        }
    }

    /// True iff the value is `Bits` and non-zero (branch conditions).
    pub fn truthy(&self) -> bool {
        matches!(self, Value::Bits(_, v) if *v != 0)
    }
}

impl fmt::Display for Value {
    /// Procedures by id: name them with [`crate::NodeRef::named`] or
    /// [`crate::StateValue`] where the program is at hand.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bits(w, v) => write!(f, "{v}::bits{}", w.bits()),
            Value::Code(p) => write!(f, "Code(#{})", p.0),
            Value::Cont(r, u) => write!(f, "Cont(#{}:{}, uid {u})", r.proc.0, r.node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::b32(1).truthy());
        assert!(!Value::b32(0).truthy());
        assert!(!Value::Code(ProcId(0)).truthy());
    }

    #[test]
    fn display() {
        assert_eq!(Value::b32(7).to_string(), "7::bits32");
        assert_eq!(Value::Code(ProcId(2)).to_string(), "Code(#2)");
    }

    #[test]
    fn a_value_is_plain_data() {
        // Writing a slot, clearing an environment or popping a frame
        // runs no drop glue for the values in it.
        assert!(!std::mem::needs_drop::<Value>());
    }
}
